//! A one-shot `timerfd`, so the driver's event loop can sleep until a
//! sub-millisecond deadline — the next open-loop send, the next injector
//! step — instead of spinning: epoll's own timeout counts whole
//! milliseconds, and a spinning client would take a core from the server
//! on a small machine.

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

/// libc's `struct timespec` on 64-bit Linux.
#[repr(C)]
pub(crate) struct Timespec {
    pub(crate) tv_sec: i64,
    pub(crate) tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(
        fd: i32,
        flags: i32,
        new_value: *const Itimerspec,
        old_value: *mut Itimerspec,
    ) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2_000_000;

pub struct Timer {
    file: File,
}

impl Timer {
    pub fn new() -> io::Result<Timer> {
        // SAFETY: timerfd_create takes two integers and touches no memory
        // of ours.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a descriptor just returned to us, owned by nothing
        // else; the File takes sole ownership and closes it on drop.
        let file = unsafe { File::from_raw_fd(fd) };
        Ok(Timer { file })
    }

    pub fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Fires once, `after` from now (replacing any earlier arming).
    pub fn arm(&self, after: Duration) -> io::Result<()> {
        // A zero value would disarm the timer instead.
        let after = after.max(Duration::from_nanos(1));
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: after.as_secs() as i64,
                tv_nsec: i64::from(after.subsec_nanos()),
            },
        };
        // SAFETY: `spec` is a valid itimerspec that outlives the call, the
        // old-value pointer may be null, and `raw()` is our open timerfd.
        let rc = unsafe { timerfd_settime(self.raw(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Consumes an expiry, so level-triggered epoll stops reporting it.
    pub fn clear(&self) {
        let mut expirations = [0u8; 8];
        // WouldBlock just means no expiry was pending.
        let _ = (&self.file).read(&mut expirations);
    }
}
