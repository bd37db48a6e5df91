//! Minimal SIGINT handling for the daemon binary, without a signal crate
//! and without polling: the classic self-pipe trick. The handler's only
//! action is an async-signal-safe `write(2)` of one byte to a pipe; the
//! binary's watcher thread blocks in [`wait_sigint`] on the read half,
//! so Ctrl-C wakes it instantly and no thread ever sleeps on a timer.

#[cfg(unix)]
use std::sync::atomic::{AtomicI32, Ordering};
#[cfg(unix)]
use std::sync::Mutex;

/// Write end of the self-pipe, stashed where the signal handler can
/// reach it. `-1` until the handler is installed.
#[cfg(unix)]
static SIGINT_FD: AtomicI32 = AtomicI32::new(-1);

/// Read end of the self-pipe, owned by [`wait_sigint`].
#[cfg(unix)]
static SIGINT_READER: Mutex<Option<std::os::unix::net::UnixStream>> = Mutex::new(None);

#[cfg(unix)]
mod imp {
    use super::{Ordering, SIGINT_FD};

    // `signal(2)` and `write(2)` from libc (already linked by std);
    // registering a plain handler avoids a sigaction struct definition,
    // and `write` is on POSIX's async-signal-safe list.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    const SIGINT_NUM: i32 = 2;

    extern "C" fn on_sigint(_signum: i32) {
        let fd = SIGINT_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let byte = [1u8];
            // SAFETY: `fd` stays open for the life of the process once
            // installed; the pipe is non-blocking, so a full buffer (a
            // wakeup already pending) returns immediately.
            unsafe {
                let _ = write(fd, byte.as_ptr(), 1);
            }
        }
    }

    pub fn install() -> bool {
        let Ok((reader, writer)) = std::os::unix::net::UnixStream::pair() else {
            return false;
        };
        if writer.set_nonblocking(true).is_err() {
            return false;
        }
        {
            use std::os::unix::io::IntoRawFd;
            SIGINT_FD.store(writer.into_raw_fd(), Ordering::SeqCst);
        }
        *super::SIGINT_READER.lock().expect("sigint reader lock") = Some(reader);
        let handler = on_sigint as extern "C" fn(i32) as *const () as usize;
        // SAFETY: `on_sigint` only performs an atomic load and an
        // async-signal-safe write(2); `signal` is the documented libc
        // entry point.
        unsafe { signal(SIGINT_NUM, handler) != usize::MAX }
    }

    pub fn wait() -> bool {
        use std::io::Read;
        let mut guard = super::SIGINT_READER.lock().expect("sigint reader lock");
        let Some(reader) = guard.as_mut() else {
            return false;
        };
        let mut byte = [0u8; 1];
        loop {
            match reader.read(&mut byte) {
                Ok(0) => return false,
                Ok(_) => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() -> bool {
        false
    }

    pub fn wait() -> bool {
        false
    }
}

/// Installs the SIGINT handler and its self-pipe; returns `false` when
/// the platform has no SIGINT to install (then [`wait_sigint`] never
/// fires and callers should skip spawning a watcher).
pub fn install_sigint_handler() -> bool {
    imp::install()
}

/// Blocks until the next SIGINT after [`install_sigint_handler`].
/// Returns `false` if the handler was never installed or the pipe broke
/// — callers must not loop on a `false` return.
pub fn wait_sigint() -> bool {
    imp::wait()
}
