//! Stream transport abstraction: TCP and Unix-domain sockets behind one
//! [`Socket`] enum, selected by the listen spec (`"unix:<path>"` binds a
//! Unix socket, anything else a TCP address).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// A bound listening socket (TCP or Unix).
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (the daemon unlinks the path on bind).
    #[cfg(unix)]
    Unix(UnixListener),
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Listener::Tcp(l) => f.debug_tuple("Tcp").field(&l.local_addr().ok()).finish(),
            #[cfg(unix)]
            Listener::Unix(_) => f.debug_tuple("Unix").finish(),
        }
    }
}

impl Listener {
    /// Binds the listen spec: `"unix:<path>"` → Unix socket (stale socket
    /// files are unlinked first), anything else → TCP address (port `0`
    /// picks a free port; see [`local_spec`](Listener::local_spec)).
    pub fn bind(spec: &str) -> io::Result<Listener> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(path);
                return Ok(Listener::Unix(UnixListener::bind(path)?));
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets are unavailable on this platform: {path}"),
            ));
        }
        Ok(Listener::Tcp(TcpListener::bind(spec)?))
    }

    /// The bound address in listen-spec syntax (resolves TCP port `0` to
    /// the actual port, so tests can connect to what they bound).
    pub fn local_spec(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix socket"))?;
                Ok(format!("unix:{}", path.display()))
            }
        }
    }

    /// Accepts the next inbound connection as a concrete [`Socket`]
    /// (honors the listener's blocking mode — with
    /// [`set_nonblocking`](Listener::set_nonblocking) it returns
    /// `WouldBlock` instead of waiting).
    pub fn accept_socket(&self) -> io::Result<Socket> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true).ok();
                Ok(Socket::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Socket::Unix(stream))
            }
        }
    }

    /// Switches the listener between blocking and readiness-driven
    /// accepts.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// The raw descriptor for readiness registration.
    #[cfg(unix)]
    pub fn raw_fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// A bidirectional byte stream the protocol runs over: what the daemon
/// accepts and the client connects. The two transports share every code
/// path above it.
pub enum Socket {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl std::fmt::Debug for Socket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Socket::Tcp(s) => f.debug_tuple("Tcp").field(&s.peer_addr().ok()).finish(),
            #[cfg(unix)]
            Socket::Unix(_) => f.debug_tuple("Unix").finish(),
        }
    }
}

impl Socket {
    /// Another handle onto the same connection. The client keeps one for
    /// its blocking reader thread, one for the calls that write, and one to
    /// shut the connection down.
    pub fn try_clone(&self) -> io::Result<Socket> {
        match self {
            Socket::Tcp(s) => s.try_clone().map(Socket::Tcp),
            #[cfg(unix)]
            Socket::Unix(s) => s.try_clone().map(Socket::Unix),
        }
    }

    /// Switches the stream between blocking and readiness-driven modes.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Socket::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// The raw descriptor for readiness registration.
    #[cfg(unix)]
    pub fn raw_fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        match self {
            Socket::Tcp(s) => s.as_raw_fd(),
            Socket::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Closes both directions, which ends a blocked read on any clone.
    pub fn shutdown_socket(&self) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Socket::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Socket::Unix(s) => s.flush(),
        }
    }
}

/// Connects to a listen spec (same syntax as [`Listener::bind`]).
pub fn connect(spec: &str) -> io::Result<Socket> {
    if let Some(path) = spec.strip_prefix("unix:") {
        #[cfg(unix)]
        return Ok(Socket::Unix(UnixStream::connect(path)?));
        #[cfg(not(unix))]
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("unix sockets are unavailable on this platform: {path}"),
        ));
    }
    let stream = TcpStream::connect(spec)?;
    stream.set_nodelay(true).ok();
    Ok(Socket::Tcp(stream))
}
