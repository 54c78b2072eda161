//! Offline in-tree shim exposing the readiness-polling API subset this
//! workspace uses (modeled on the `polling` crate): a [`Poller`] that
//! watches raw file descriptors for read/write readiness and hands each
//! readiness to **one** of the threads waiting on it, plus a
//! cross-thread [`notify`](Poller::notify) wake-up.
//!
//! The workspace must build without network access **and** without the
//! `libc` crate, so the syscalls are declared in-tree with thin
//! `extern "C"` bindings (std already links the platform C library, so
//! they resolve at link time).
//!
//! A `Poller` is one `epoll` instance plus a notify pipe:
//! `EPOLLONESHOT` interests, `O(ready)` wakeups, any number of threads
//! inside `epoll_wait` at once. Linux is the serving platform; on every
//! other target the type still compiles and each operation, starting
//! with [`Poller::new`], returns [`std::io::ErrorKind::Unsupported`].
//!
//! ## Semantics
//!
//! Interests are **one-shot**, as in the upstream crate: an interest
//! set with [`add`](Poller::add)/[`modify`](Poller::modify) is
//! delivered at most once and the fd is then *disarmed* until the next
//! `modify` — which fires at once if the fd became ready in between, so
//! nothing is lost while an owner works on a disarmed fd. Error/hang-up
//! conditions are reported as both readable and writable so the owner's
//! next I/O call observes the failure.
//!
//! A fd that is re-armed while it is ready goes behind every other
//! ready fd (epoll's ready list is in the order fds became ready or
//! were re-armed ready), so owners that re-arm after each step of work
//! take turns.
//!
//! [`wait`](Poller::wait) may be called from **several threads at
//! once**, and every delivered readiness goes to exactly one of them:
//! the thread that receives an event owns that fd until it re-arms it.
//! This is where the shim departs from upstream, whose `wait` takes a
//! lock and so lets one thread poll at a time. Each call names how many
//! events it will take; the rest stay armed for other waiters.
//!
//! [`notify`](Poller::notify) releases **every** `wait` in progress —
//! or, when there is none, the next one — with no event, which is how a
//! server tells all of its threads to shut down with one call.
//!
//! ```
//! use polling::Poller;
//! use std::sync::Arc;
//!
//! // `notify` wakes a `wait` from any thread.
//! let poller = Arc::new(Poller::new().unwrap());
//! let waker = Arc::clone(&poller);
//! let t = std::thread::spawn(move || waker.notify().unwrap());
//! let mut events = Vec::new();
//! poller.wait(&mut events, 1, None).unwrap(); // returns on notify()
//! assert!(events.is_empty(), "a bare notify carries no fd event");
//! t.join().unwrap();
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]

/// A readiness interest or a delivered readiness event: which `key`
/// (caller-chosen token) and which directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller's token for the registered fd (delivered back
    /// verbatim on readiness). `usize::MAX` is reserved for the
    /// poller's internal notify pipe.
    pub key: usize,
    /// Interested in / ready for reading.
    pub readable: bool,
    /// Interested in / ready for writing.
    pub writable: bool,
}

impl Event {
    /// Interest in read readiness only.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Interest in write readiness only.
    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Interest in both directions.
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    /// No interest (keeps the registration alive for a later
    /// [`modify`](Poller::modify)).
    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// The reserved key the poller registers its internal notify pipe
/// under; never delivered to callers.
const NOTIFY_KEY: usize = usize::MAX;

#[cfg(target_os = "linux")]
mod sys {
    //! The in-tree syscall bindings: just the symbols the poller
    //! needs, declared directly (std links the C library already).
    #![allow(non_camel_case_types)]

    pub type RawFd = i32;

    pub const F_SETFL: i32 = 4;
    pub const O_NONBLOCK: i32 = 0x800;

    extern "C" {
        pub fn pipe(fds: *mut RawFd) -> i32;
        pub fn fcntl(fd: RawFd, cmd: i32, arg: i32) -> i32;
        pub fn close(fd: RawFd) -> i32;
        pub fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
    }

    pub mod epoll {
        use super::RawFd;

        // The kernel ABI packs `epoll_event` on x86-64 only.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Debug, Clone, Copy)]
        pub struct epoll_event {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLONESHOT: u32 = 1 << 30;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        pub const EPOLL_CLOEXEC: i32 = 0x80000;

        extern "C" {
            pub fn epoll_create1(flags: i32) -> RawFd;
            pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: *mut epoll_event) -> i32;
            pub fn epoll_wait(
                epfd: RawFd,
                events: *mut epoll_event,
                maxevents: i32,
                timeout: i32,
            ) -> i32;
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{sys, Event, NOTIFY_KEY};
    use std::io;
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Most events one [`Poller::wait`] call translates, whatever
    /// capacity its caller names (the rest stay armed and surface on a
    /// later call, on this thread or another).
    const MAX_EVENTS: usize = 64;

    fn last_err() -> io::Error {
        io::Error::last_os_error()
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(last_err())
        } else {
            Ok(ret)
        }
    }

    /// Run a blocking syscall until it returns something other than
    /// `EINTR`; its non-negative result is a count.
    fn retry_interrupted(mut call: impl FnMut() -> i32) -> io::Result<usize> {
        loop {
            match check(call()) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Millisecond timeout for `epoll_wait`: `None` blocks forever;
    /// sub-millisecond waits round up so they stay waits.
    fn timeout_ms(timeout: Option<Duration>) -> i32 {
        match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis().min(i32::MAX as u128) as i32;
                if ms == 0 && d > Duration::ZERO {
                    1
                } else {
                    ms
                }
            }
        }
    }

    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        /// Threads inside `epoll_wait`. A pending `notify` stays in the
        /// pipe, waking one waiter after another, until the last of
        /// them leaves and drains it.
        waiting: AtomicUsize,
        notify_read: RawFd,
        notify_write: RawFd,
    }

    // SAFETY: every field is either plain data or independently
    // thread-safe — the epoll fd may be used from any thread by kernel
    // contract, `waiting` is atomic, and the pipe ends are raw fds
    // (read only by `wait`, written only by `notify`; concurrent pipe
    // reads/writes are kernel-serialized).
    unsafe impl Send for Poller {}
    // SAFETY: `&Poller` only exposes `epoll_ctl`/`epoll_wait` on the
    // epoll fd (thread-safe per epoll(7), from any number of threads at
    // once), an atomic counter, and byte-sized pipe I/O — all safe to
    // call from many threads at once.
    unsafe impl Sync for Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; it either
            // yields a fresh fd we own or -1 (checked below).
            let epfd = check(unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) })?;
            // From here on the three fds are the poller's: every error
            // path below drops it, and `Drop` closes them.
            let mut poller = Poller {
                epfd,
                waiting: AtomicUsize::new(0),
                notify_read: -1,
                notify_write: -1,
            };
            let mut fds: [RawFd; 2] = [-1, -1];
            // SAFETY: `pipe` writes exactly two fds through the
            // pointer; `fds` is a live [RawFd; 2] on this stack frame.
            check(unsafe { sys::pipe(fds.as_mut_ptr()) })?;
            (poller.notify_read, poller.notify_write) = (fds[0], fds[1]);
            for fd in fds {
                // SAFETY: pure-integer syscall on a pipe fd we just
                // created; no pointers involved.
                check(unsafe { sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK) })?;
            }
            // The pipe is the one persistent, level-triggered interest:
            // it must keep firing until the last waiter has seen it.
            epoll_ctl(
                poller.epfd,
                sys::epoll::EPOLL_CTL_ADD,
                poller.notify_read,
                sys::epoll::EPOLLIN,
                NOTIFY_KEY,
            )?;
            Ok(poller)
        }

        pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
            self.arm(sys::epoll::EPOLL_CTL_ADD, source.as_raw_fd(), interest)
        }

        pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
            self.arm(sys::epoll::EPOLL_CTL_MOD, source.as_raw_fd(), interest)
        }

        /// Set `fd`'s one-shot interest with `op` (register or re-arm).
        fn arm(&self, op: i32, fd: RawFd, interest: Event) -> io::Result<()> {
            epoll_ctl(self.epfd, op, fd, oneshot_bits(interest), interest.key)
        }

        pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
            // DEL ignores the event, but pre-2.6.9 kernels want a
            // non-null pointer, which `epoll_ctl` always passes.
            epoll_ctl(
                self.epfd,
                sys::epoll::EPOLL_CTL_DEL,
                source.as_raw_fd(),
                0,
                0,
            )
        }

        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            capacity: usize,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let capacity = capacity.clamp(1, MAX_EVENTS);
            let ms = timeout_ms(timeout);
            let mut raw = [sys::epoll::epoll_event { events: 0, data: 0 }; MAX_EVENTS];
            self.waiting.fetch_add(1, Ordering::AcqRel);
            // SAFETY: `raw` is a stack buffer of MAX_EVENTS
            // epoll_events and `capacity` is clamped to that, so
            // the kernel writes only within bounds; `epfd` is
            // our live epoll fd.
            let polled = retry_interrupted(|| unsafe {
                sys::epoll::epoll_wait(self.epfd, raw.as_mut_ptr(), capacity as i32, ms)
            });
            let last_out = self.waiting.fetch_sub(1, Ordering::AcqRel) == 1;
            let mut notified = false;
            for ev in &raw[..polled?] {
                // Copy the (possibly packed) fields out first.
                let (bits, data) = (ev.events, ev.data);
                if data == NOTIFY_KEY as u64 {
                    notified = true;
                    continue;
                }
                let hup = bits & (sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP) != 0;
                events.push(Event {
                    key: data as usize,
                    readable: bits & sys::epoll::EPOLLIN != 0 || hup,
                    writable: bits & sys::epoll::EPOLLOUT != 0 || hup,
                });
            }
            // Left in the pipe, the byte wakes the next waiter
            // in turn; only the last one out may take it.
            if notified && last_out {
                self.drain_notify();
            }
            Ok(events.len())
        }

        /// Make the notify pipe readable.
        pub fn notify(&self) -> io::Result<()> {
            let buf = [1u8];
            // SAFETY: writes 1 byte from a live 1-byte stack buffer to
            // the pipe fd this Poller owns.
            let n = unsafe { sys::write(self.notify_write, buf.as_ptr(), 1) };
            if n == 1 {
                return Ok(());
            }
            let err = last_err();
            // A full pipe means a wake-up is already pending — done.
            if err.kind() == io::ErrorKind::WouldBlock {
                Ok(())
            } else {
                Err(err)
            }
        }

        /// Empty the notify pipe so the next write produces a fresh
        /// edge (the pipe is nonblocking; stop on empty).
        fn drain_notify(&self) {
            let mut buf = [0u8; 64];
            // SAFETY: reads at most `buf.len()` bytes into a live
            // stack buffer of exactly that size, from our own pipe fd.
            while unsafe { sys::read(self.notify_read, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: the fds are owned exclusively by this Poller
            // (created in `new`, never duplicated or exposed), and Drop
            // means no other reference exists — so no close can race a
            // concurrent use of the same fd. A pipe end still at -1
            // (`new` failed before the pipe existed) is skipped.
            unsafe {
                for fd in [self.notify_read, self.notify_write, self.epfd] {
                    if fd >= 0 {
                        sys::close(fd);
                    }
                }
            }
        }
    }

    /// One `epoll_ctl` call: `bits` and `key` as the fd's new event.
    fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, bits: u32, key: usize) -> io::Result<()> {
        let mut ev = sys::epoll::epoll_event {
            events: bits,
            data: key as u64,
        };
        // SAFETY: `epfd` is a live epoll fd owned by the calling Poller
        // and `ev` points to a stack-local epoll_event that outlives
        // the call (epoll_ctl does not retain the pointer).
        check(unsafe { sys::epoll::epoll_ctl(epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// The epoll event mask of a one-shot interest. With neither
    /// direction set the fd stays registered and reports nothing.
    fn oneshot_bits(interest: Event) -> u32 {
        let mut bits = sys::epoll::EPOLLONESHOT;
        if interest.readable {
            bits |= sys::epoll::EPOLLIN;
        }
        if interest.writable {
            bits |= sys::epoll::EPOLLOUT;
        }
        bits
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    //! Stub for every other target: Linux is the serving platform, so
    //! every operation reports `Unsupported` and the workspace still
    //! compiles (`Server::bind` fails with that error; the library and
    //! `LocalClient` need no poller).
    use super::Event;
    use std::io;
    use std::time::Duration;

    #[derive(Debug)]
    pub struct Poller {}

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling is unsupported on this platform",
        )
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }

        pub fn add<T>(&self, _source: &T, _interest: Event) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn modify<T>(&self, _source: &T, _interest: Event) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn delete<T>(&self, _source: &T) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn wait(
            &self,
            _events: &mut Vec<Event>,
            _capacity: usize,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            Err(unsupported())
        }

        pub fn notify(&self) -> io::Result<()> {
            Err(unsupported())
        }
    }
}

/// A readiness poller over raw file descriptors. See the crate docs
/// for the semantics; the API mirrors the subset of the upstream
/// `polling` crate this workspace uses:
///
/// * [`new`](Poller::new) — create;
/// * [`add`](Poller::add) / [`modify`](Poller::modify) /
///   [`delete`](Poller::delete) — manage per-fd one-shot interests
///   (the fd must outlive its registration; sockets should be
///   nonblocking); `modify` is also how a delivered fd is re-armed;
/// * [`wait`](Poller::wait) — block for readiness (or a timeout),
///   filling a caller-owned `Vec<Event>` with at most `capacity`
///   events, from any number of threads at once;
/// * [`notify`](Poller::notify) — release every concurrent `wait`
///   from any thread.
pub use imp::Poller;

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::{Event, Poller};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A connected loopback pair: the client end, and the accepted end
    /// (nonblocking, the one tests register).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        (client, server_side)
    }

    const SHORT: Option<Duration> = Some(Duration::from_millis(30));
    const LONG: Option<Duration> = Some(Duration::from_secs(10));

    #[test]
    fn timeout_elapses_without_events() {
        let poller = Poller::new().expect("poller");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(5)))
            .expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn notify_wakes_a_blocking_wait() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let waker = Arc::clone(&poller);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            waker.notify().expect("notify");
        });
        let mut events = Vec::new();
        poller.wait(&mut events, 8, None).expect("wait");
        assert!(events.is_empty());
        t.join().expect("notifier");
        // Consumed: the next wait blocks again.
        let n = poller.wait(&mut events, 8, SHORT).expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn notify_releases_every_waiter() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let poller = Arc::clone(&poller);
                std::thread::spawn(move || {
                    let started = Instant::now();
                    let mut events = Vec::new();
                    poller.wait(&mut events, 1, LONG).expect("wait");
                    (events.len(), started.elapsed())
                })
            })
            .collect();
        // Let them all block first (one that arrives late returns
        // at once, which is allowed and passes too).
        std::thread::sleep(Duration::from_millis(50));
        poller.notify().expect("notify");
        for w in waiters {
            let (n, took) = w.join().expect("waiter");
            assert_eq!(n, 0, "a notify carries no event");
            assert!(took < Duration::from_secs(5), "waiter slept {took:?}");
        }
    }

    #[test]
    fn one_readiness_is_one_delivery_until_rearmed() {
        let poller = Poller::new().expect("poller");
        let (mut client, server_side) = pair();
        poller.add(&server_side, Event::readable(3)).expect("add");
        client.write_all(b"ping").expect("send");

        let mut events = Vec::new();
        poller.wait(&mut events, 8, LONG).expect("wait");
        assert_eq!(events, [Event::readable(3)]);
        // Still readable (nothing was read), but disarmed.
        let n = poller.wait(&mut events, 8, SHORT).expect("wait");
        assert_eq!(n, 0, "a disarmed fd fired {events:?}");
        // Re-armed, it fires once more — and only once.
        poller
            .modify(&server_side, Event::readable(3))
            .expect("modify");
        poller.wait(&mut events, 8, LONG).expect("wait");
        assert_eq!(events, [Event::readable(3)]);
        let n = poller.wait(&mut events, 8, SHORT).expect("wait");
        assert_eq!(n, 0, "fired twice on one re-arm {events:?}");
        poller.delete(&server_side).expect("delete");
    }

    #[test]
    fn rearming_a_socket_that_became_readable_while_disarmed_fires_at_once() {
        let poller = Poller::new().expect("poller");
        let (mut client, server_side) = pair();
        poller.add(&server_side, Event::none(5)).expect("add");
        client.write_all(b"early").expect("send");
        let mut events = Vec::new();
        let n = poller.wait(&mut events, 8, SHORT).expect("wait");
        assert_eq!(n, 0, "no interest, no event");
        poller
            .modify(&server_side, Event::readable(5))
            .expect("modify");
        let started = Instant::now();
        poller.wait(&mut events, 8, LONG).expect("wait");
        assert_eq!(events, [Event::readable(5)]);
        assert!(started.elapsed() < Duration::from_secs(5));
        poller.delete(&server_side).expect("delete");
    }

    #[test]
    fn two_waiters_share_one_readiness_exactly_once() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let (mut client, server_side) = pair();
        poller.add(&server_side, Event::readable(11)).expect("add");
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let poller = Arc::clone(&poller);
                std::thread::spawn(move || {
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, 1, Some(Duration::from_millis(300)))
                        .expect("wait");
                    events
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        client.write_all(b"one").expect("send");
        let delivered: Vec<Event> = waiters
            .into_iter()
            .flat_map(|w| w.join().expect("waiter"))
            .collect();
        assert_eq!(delivered, [Event::readable(11)]);
        poller.delete(&server_side).expect("delete");
    }

    /// A thread asleep in `wait` went to sleep with the old interest
    /// set; the new one must still reach it.
    #[test]
    fn a_modify_reaches_a_thread_already_asleep_in_wait() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let (mut client, server_side) = pair();
        // Readable from the start, but nobody is interested yet.
        client.write_all(b"ready").expect("send");
        poller.add(&server_side, Event::none(13)).expect("add");
        let sleeper = {
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                let started = Instant::now();
                let mut events = Vec::new();
                poller.wait(&mut events, 1, LONG).expect("wait");
                (events, started.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        poller
            .modify(&server_side, Event::readable(13))
            .expect("modify");
        let (events, took) = sleeper.join().expect("sleeper");
        assert_eq!(events, [Event::readable(13)]);
        assert!(took < Duration::from_secs(5), "slept {took:?}");
        poller.delete(&server_side).expect("delete");
    }

    #[test]
    fn capacity_bounds_one_call_and_the_rest_stay_armed() {
        let poller = Poller::new().expect("poller");
        let pairs: Vec<_> = (0..3).map(|_| pair()).collect();
        for (key, (client, server_side)) in pairs.iter().enumerate() {
            poller.add(server_side, Event::readable(key)).expect("add");
            let mut client = client;
            client.write_all(b"x").expect("send");
        }
        let mut keys = Vec::new();
        let mut events = Vec::new();
        for _ in 0..3 {
            let n = poller.wait(&mut events, 1, LONG).expect("wait");
            assert_eq!(n, 1, "capacity 1, got {events:?}");
            keys.push(events[0].key);
        }
        keys.sort_unstable();
        assert_eq!(keys, [0, 1, 2]);
        assert_eq!(poller.wait(&mut events, 1, SHORT).expect("wait"), 0);
    }

    /// What lets owners take turns: re-arming a fd that is still ready
    /// sends it behind every other ready fd.
    #[test]
    fn a_fd_rearmed_while_ready_goes_behind_the_other_ready_fds() {
        let poller = Poller::new().expect("poller");
        let pairs: Vec<_> = (0..3).map(|_| pair()).collect();
        for (key, (client, server_side)) in pairs.iter().enumerate() {
            poller.add(server_side, Event::readable(key)).expect("add");
            let mut client = client;
            client.write_all(b"x").expect("send");
        }
        // Nothing is ever read, so all three stay ready throughout.
        std::thread::sleep(Duration::from_millis(20));
        let mut events = Vec::new();
        let mut order = Vec::new();
        for _ in 0..9 {
            assert_eq!(poller.wait(&mut events, 1, LONG).expect("wait"), 1);
            let key = events[0].key;
            order.push(key);
            poller
                .modify(&pairs[key].1, Event::readable(key))
                .expect("re-arm");
        }
        let (first, rest) = order.split_at(3);
        let mut turn = first.to_vec();
        turn.sort_unstable();
        assert_eq!(turn, [0, 1, 2], "{order:?}");
        assert_eq!(rest, [first, first].concat(), "{order:?}");
    }

    #[test]
    fn listener_and_stream_readiness_round_trip() {
        let poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        poller.add(&listener, Event::readable(7)).expect("add");

        // A connection makes the listener readable.
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut events = Vec::new();
        poller.wait(&mut events, 8, LONG).expect("wait");
        assert!(
            events.iter().any(|e| e.key == 7 && e.readable),
            "accept readiness, got {events:?}"
        );
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");

        // A fresh stream is writable but not readable...
        poller.add(&server_side, Event::all(9)).expect("add stream");
        poller.wait(&mut events, 8, LONG).expect("wait");
        let ev = events.iter().find(|e| e.key == 9).expect("stream event");
        assert!(ev.writable && !ev.readable, "{ev:?}");

        // ...until the peer sends bytes.
        poller
            .modify(&server_side, Event::readable(9))
            .expect("modify");
        client.write_all(b"ping").expect("send");
        client.flush().expect("flush");
        poller.wait(&mut events, 8, LONG).expect("wait");
        let ev = events.iter().find(|e| e.key == 9).expect("read event");
        assert!(ev.readable, "{ev:?}");
        let mut buf = [0u8; 8];
        let mut s = &server_side;
        assert_eq!(s.read(&mut buf).expect("read"), 4);

        // Deleted fds stop reporting, armed or not.
        poller
            .modify(&server_side, Event::readable(9))
            .expect("modify");
        poller.delete(&server_side).expect("delete");
        client.write_all(b"more").expect("send");
        let n = poller.wait(&mut events, 8, SHORT).expect("wait");
        assert_eq!(n, 0, "deleted fd fired {events:?}");
        poller.delete(&listener).expect("delete listener");
    }
}
