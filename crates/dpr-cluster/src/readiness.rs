//! Blocking readiness waits for the TCP plane.
//!
//! The standard library cannot wait on several sockets at once, and no
//! event-loop crate is vendored. It does link the C library, so this module
//! declares `ppoll(2)` itself and wraps it in [`wait`]. A [`Wake`] lets one
//! thread end another thread's wait: the waiting thread registers one end
//! of a Unix socket pair, and a waker writes a byte to the other end.
//!
//! Readiness is level-triggered: a descriptor stays ready until its bytes
//! are read (or its send buffer drains), so a wait can never miss data
//! that arrived before it started.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Bytes are ready to read (or, on a listener, a connection to accept).
pub(crate) const POLLIN: c_short = 0x1;
/// The send buffer has room.
pub(crate) const POLLOUT: c_short = 0x4;

/// One entry of a wait set: the C `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Wait for `events` on `fd`. Errors and hang-ups are always reported.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this entry.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// The C `struct timespec` (`time_t` is a `long` on Linux).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` has passed (`None`
/// waits without limit); [`PollFd::ready`] then tells which. A signal may
/// end the wait early with nothing ready, so callers re-check their state
/// and wait again.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ts = timeout.map(|t| Timespec {
        tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: t.subsec_nanos() as c_long, // < 10^9, fits any `long`
    });
    let ts_ptr = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfd
    // entries and `nfds` is its length; `ts_ptr` is null or points at `ts`,
    // which outlives the call; a null signal mask leaves the mask unchanged.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    };
    if n >= 0 {
        return Ok(());
    }
    let e = io::Error::last_os_error();
    if e.kind() == io::ErrorKind::Interrupted {
        Ok(())
    } else {
        Err(e)
    }
}

/// Block until `fd` is ready for `events` or `timeout` has passed; see
/// [`wait`].
pub(crate) fn wait_one(
    fd: &impl AsRawFd,
    events: c_short,
    timeout: Option<Duration>,
) -> io::Result<()> {
    wait(&mut [PollFd::new(fd.as_raw_fd(), events)], timeout)
}

/// Ends another thread's [`wait`]. The waiting thread includes
/// [`Wake::poll_fd`] in its set; [`Wake::wake`] makes that entry ready
/// until the waiting thread calls [`Wake::clear`]. Clones share one pair,
/// and the read end lives as long as any clone, so a wake never writes
/// to a closed socket, even after the waiting thread has exited.
#[derive(Clone)]
pub(crate) struct Wake(Arc<(UnixStream, UnixStream)>);

impl Wake {
    pub(crate) fn new() -> io::Result<Wake> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Wake(Arc::new((rx, tx))))
    }

    /// Make the waiting thread's current or next wait return. A full
    /// socket buffer means a wake is already pending, so a failed write
    /// loses nothing.
    pub(crate) fn wake(&self) {
        let _ = (&self.0 .1).write(&[1]);
    }

    /// The entry to include in the waiting thread's set.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(self.0 .0.as_raw_fd(), POLLIN)
    }

    /// Consume pending wakes so the next wait blocks again. The waiting
    /// thread calls this *before* it re-checks whatever the wakers
    /// signal, so a wake sent after that check is never lost.
    pub(crate) fn clear(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.0 .0).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wait_times_out_without_readiness() {
        let wake = Wake::new().unwrap();
        let t = Instant::now();
        let mut fds = [wake.poll_fd()];
        wait(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert!(!fds[0].ready());
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn wake_ends_a_wait_from_another_thread_until_cleared() {
        let wake = Wake::new().unwrap();
        let waker = wake.clone();
        let t = std::thread::spawn(move || {
            waker.wake();
            waker.wake();
        });
        let mut fds = [wake.poll_fd()];
        wait(&mut fds, None).unwrap();
        assert!(fds[0].ready());
        t.join().unwrap();
        wake.clear();
        let mut fds = [wake.poll_fd()];
        wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert!(!fds[0].ready());
    }
}
