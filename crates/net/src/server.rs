//! The event-driven server: a dispatching acceptor thread fanning
//! accepted sockets out to the reactor shards, plus lifecycle.

use crate::config::NetConfig;
use crate::reactor::{spawn_shard, Shard};
use minimio::{Events, Interest, Poll, Token, Waker};
use mlcnn_serve::Dispatch;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const LISTENER_TOKEN: Token = Token(0);
const SHUTDOWN_TOKEN: Token = Token(1);

/// An event-driven frame-protocol server over any [`Dispatch`] backend
/// (a [`mlcnn_serve::NamedService`], or a [`mlcnn_serve::Router`] with
/// multi-model routing, hot-swap, and revision attribution).
///
/// One acceptor thread accepts nonblocking sockets and deals them
/// round-robin to `shards` reactor threads; every connection lives on
/// exactly one shard for its lifetime. Construction is gated by the
/// `mlcnn-check` `N0xx` lints in deny mode.
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_waker: Arc<Waker>,
    acceptor: Option<JoinHandle<io::Result<()>>>,
    shards: Vec<Shard>,
    conn_count: Arc<AtomicUsize>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("shards", &self.shards.len())
            .field("open_connections", &self.open_connections())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Stand up the server on `listener`. Fails — before any thread
    /// starts — when the `N0xx` gate denies the config.
    pub fn spawn<D: Dispatch>(
        listener: TcpListener,
        backend: Arc<D>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        cfg.validate("mlcnn-net")
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let conn_count = Arc::new(AtomicUsize::new(0));
        let backend: Arc<dyn Dispatch> = backend;

        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            shards.push(spawn_shard(
                i,
                Arc::clone(&backend),
                &cfg,
                Arc::clone(&conn_count),
            )?);
        }

        let poll = Poll::new()?;
        poll.register(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        let accept_waker = Arc::new(Waker::new(&poll, SHUTDOWN_TOKEN)?);
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let conn_count = Arc::clone(&conn_count);
            let mailboxes: Vec<_> = shards
                .iter()
                .map(|s| (Arc::clone(&s.inbox), Arc::clone(&s.waker)))
                .collect();
            let max_connections = cfg.max_connections;
            std::thread::Builder::new()
                .name("mlcnn-net-acceptor".into())
                .spawn(move || {
                    acceptor_loop(
                        &poll,
                        &listener,
                        &mailboxes,
                        &shutdown,
                        &conn_count,
                        max_connections,
                    )
                })?
        };

        Ok(NetServer {
            local_addr,
            shutdown,
            accept_waker,
            acceptor: Some(acceptor),
            shards,
            conn_count,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently open connections across all shards.
    pub fn open_connections(&self) -> usize {
        self.conn_count.load(Ordering::Acquire)
    }

    /// Block on the acceptor until the server is shut down (or the
    /// listener fails fatally), then tear down the shards — what the
    /// `mlcnn-served` binary parks its main thread on.
    pub fn join(mut self) -> io::Result<()> {
        let result = match self.acceptor.take() {
            Some(h) => h.join().unwrap_or(Ok(())),
            None => Ok(()),
        };
        self.stop_threads();
        result
    }

    /// Stop accepting, drop every connection, and join all threads.
    /// In-flight requests already inside the service still complete
    /// there; their responses are discarded with the connections.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = self.accept_waker.wake();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for shard in &self.shards {
            shard.inbox.shutdown.store(true, Ordering::Release);
            let _ = shard.waker.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.shards.is_empty() {
            self.stop_threads();
        }
    }
}

/// Accept until shut down, dealing sockets round-robin to the shards.
/// Sockets beyond the connection cap are dropped at the door (their
/// peers see a reset), which keeps every admitted connection inside
/// the configured budget.
fn acceptor_loop(
    poll: &Poll,
    listener: &TcpListener,
    mailboxes: &[(Arc<crate::reactor::Inbox>, Arc<Waker>)],
    shutdown: &AtomicBool,
    conn_count: &AtomicUsize,
    max_connections: usize,
) -> io::Result<()> {
    let mut events = Events::with_capacity(64);
    let mut rr = 0usize;
    loop {
        poll.wait(&mut events, Some(Duration::from_millis(500)))?;
        if shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // single incrementer, so load-then-add cannot race
                    if conn_count.load(Ordering::Acquire) >= max_connections {
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    conn_count.fetch_add(1, Ordering::AcqRel);
                    let (inbox, waker) = &mailboxes[rr % mailboxes.len()];
                    rr = rr.wrapping_add(1);
                    inbox
                        .incoming
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(stream);
                    let _ = waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }
}
