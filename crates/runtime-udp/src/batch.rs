//! Syscall-batched datagram I/O: `sendmmsg`/`recvmmsg` on Linux, a
//! per-datagram fallback everywhere else.
//!
//! The runtime's send path already encodes each packet **once** and
//! writes the same wire bytes to every destination; the remaining cost
//! is one `sendto(2)` syscall per destination and one `recvfrom(2)` per
//! arriving datagram. On Linux both collapse:
//!
//! * [`send_to_many`] transmits one payload to N destinations with
//!   ⌈N/64⌉ `sendmmsg(2)` calls — every message shares a single iovec
//!   pointing at the same buffer, so the kernel copy is the only
//!   per-destination work left.
//! * [`RecvBatcher`] drains up to a batch of datagrams per
//!   `recvmmsg(2)` call with `MSG_WAITFORONE`: the call blocks for the
//!   first datagram (respecting the socket's read timeout, which the
//!   event loop relies on for shutdown polling) and then collects
//!   whatever else is already queued without blocking again.
//!
//! The module is feature-gated (`mmsg`, on by default) and compiled to
//! the batched syscalls only on `target_os = "linux"`; other targets (or
//! `--no-default-features`) get a fallback with identical semantics
//! built on `send_to`/`recv_from`, so hosts never branch on platform.
//! The workspace vendors no `libc`, so the Linux path declares the tiny
//! FFI surface it needs itself — `std` already links libc on every
//! supported Unix target.

use std::net::{SocketAddr, UdpSocket};

/// How many datagrams one batched syscall covers at most. Also the batch
/// size of the fallback loop (where it only bounds per-call work).
pub const BATCH: usize = 64;

#[cfg(all(target_os = "linux", feature = "mmsg"))]
mod sys {
    //! Hand-declared FFI for `sendmmsg`/`recvmmsg` (no vendored `libc`).
    //! Layouts match the x86-64/aarch64 Linux ABI `struct msghdr`.
    #![allow(non_camel_case_types)]

    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6};
    use std::os::raw::{c_int, c_uint, c_void};

    pub(super) const AF_INET: u16 = 2;
    pub(super) const AF_INET6: u16 = 10;
    /// `recvmmsg`: block for the first message only, then drain.
    pub(super) const MSG_WAITFORONE: c_int = 0x10000;
    /// Per-message flag the kernel sets when a datagram was longer than
    /// the buffer it was received into.
    pub(super) const MSG_TRUNC: c_int = 0x20;
    /// `poll(2)`: data available to read.
    pub(super) const POLLIN: c_short = 0x001;

    use std::os::raw::{c_short, c_ulong};

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct pollfd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct iovec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct msghdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: u32,
        pub msg_iov: *mut iovec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: c_int,
    }

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct mmsghdr {
        pub msg_hdr: msghdr,
        pub msg_len: c_uint,
    }

    /// Big enough for `sockaddr_in6`; zero padding keeps `sockaddr_in`
    /// valid too (the kernel reads only `namelen` bytes).
    #[repr(C, align(8))]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct sockaddr_storage {
        pub bytes: [u8; 28],
    }

    impl sockaddr_storage {
        pub(super) const ZERO: sockaddr_storage = sockaddr_storage { bytes: [0u8; 28] };
    }

    extern "C" {
        pub(super) fn sendmmsg(
            fd: c_int,
            msgvec: *mut mmsghdr,
            vlen: c_uint,
            flags: c_int,
        ) -> c_int;
        pub(super) fn recvmmsg(
            fd: c_int,
            msgvec: *mut mmsghdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void, // struct timespec*; we always pass null
        ) -> c_int;
        pub(super) fn poll(fds: *mut pollfd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Encodes `addr` into `storage`; returns the kernel-facing length.
    pub(super) fn encode_addr(addr: SocketAddr, storage: &mut sockaddr_storage) -> u32 {
        match addr {
            SocketAddr::V4(v4) => {
                storage.bytes[..2].copy_from_slice(&AF_INET.to_ne_bytes());
                storage.bytes[2..4].copy_from_slice(&v4.port().to_be_bytes());
                storage.bytes[4..8].copy_from_slice(&v4.ip().octets());
                storage.bytes[8..16].fill(0); // sin_zero
                16
            }
            SocketAddr::V6(v6) => {
                storage.bytes[..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                storage.bytes[2..4].copy_from_slice(&v6.port().to_be_bytes());
                storage.bytes[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                storage.bytes[8..24].copy_from_slice(&v6.ip().octets());
                storage.bytes[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        }
    }

    /// Decodes the kernel-written name back into a `SocketAddr`.
    pub(super) fn decode_addr(storage: &sockaddr_storage) -> Option<SocketAddr> {
        let family = u16::from_ne_bytes([storage.bytes[0], storage.bytes[1]]);
        let port = u16::from_be_bytes([storage.bytes[2], storage.bytes[3]]);
        match family {
            AF_INET => {
                let ip: [u8; 4] = storage.bytes[4..8].try_into().ok()?;
                Some(SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::from(ip), port)))
            }
            AF_INET6 => {
                let flow = u32::from_ne_bytes(storage.bytes[4..8].try_into().ok()?);
                let ip: [u8; 16] = storage.bytes[8..24].try_into().ok()?;
                let scope = u32::from_ne_bytes(storage.bytes[24..28].try_into().ok()?);
                Some(SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::from(ip), port, flow, scope)))
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Batched send.
// ---------------------------------------------------------------------------

/// Sends `payload` to every address in `addrs`: one `sendmmsg(2)` per
/// [`BATCH`] destinations on Linux, a plain `send_to` loop elsewhere.
/// Transmission is best-effort per destination, like the runtime's
/// existing fan-out (UDP gives no delivery guarantee anyway): a batch
/// that errors falls back to per-datagram sends for its remainder.
/// Returns how many destinations were handed to the kernel, so callers
/// can count (rather than silently swallow) local send failures —
/// `addrs.len()` minus the return value is the number of datagrams that
/// never left this host.
#[cfg(all(target_os = "linux", feature = "mmsg"))]
pub fn send_to_many(socket: &UdpSocket, payload: &[u8], addrs: &[SocketAddr]) -> usize {
    use std::os::fd::AsRawFd;
    let fd = socket.as_raw_fd();
    let mut ok = 0usize;
    for chunk in addrs.chunks(BATCH) {
        let mut names = [sys::sockaddr_storage::ZERO; BATCH];
        let mut iovs =
            [sys::iovec { iov_base: payload.as_ptr() as *mut _, iov_len: payload.len() }; BATCH];
        let mut msgs = [sys::mmsghdr {
            msg_hdr: sys::msghdr {
                msg_name: std::ptr::null_mut(),
                msg_namelen: 0,
                msg_iov: std::ptr::null_mut(),
                msg_iovlen: 1,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            },
            msg_len: 0,
        }; BATCH];
        for (i, &addr) in chunk.iter().enumerate() {
            let len = sys::encode_addr(addr, &mut names[i]);
            msgs[i].msg_hdr.msg_name = names[i].bytes.as_mut_ptr().cast();
            msgs[i].msg_hdr.msg_namelen = len;
            msgs[i].msg_hdr.msg_iov = &mut iovs[i];
        }
        let mut done = 0usize;
        while done < chunk.len() {
            // SAFETY: `msgs[done..]` are fully initialized mmsghdrs whose
            // name/iov pointers reference `names`/`iovs`/`payload`, all of
            // which outlive the call; vlen matches the slice length.
            let sent = unsafe {
                sys::sendmmsg(fd, msgs.as_mut_ptr().add(done), (chunk.len() - done) as u32, 0)
            };
            if sent <= 0 {
                // Fall back to per-datagram sends for the remainder
                // (best-effort, mirroring the historical path).
                for &addr in &chunk[done..] {
                    if socket.send_to(payload, addr).is_ok() {
                        ok += 1;
                    }
                }
                break;
            }
            done += sent as usize;
            ok += sent as usize;
        }
    }
    ok
}

/// Fallback: one `send_to` per destination (non-Linux targets, or the
/// `mmsg` feature disabled). Returns how many sends succeeded.
#[cfg(not(all(target_os = "linux", feature = "mmsg")))]
pub fn send_to_many(socket: &UdpSocket, payload: &[u8], addrs: &[SocketAddr]) -> usize {
    addrs.iter().filter(|&&addr| socket.send_to(payload, addr).is_ok()).count()
}

// ---------------------------------------------------------------------------
// Batched, pool-fed receive.
// ---------------------------------------------------------------------------

use crate::pool::{BufferPool, SizeClass};
use bytes::Bytes;

/// Reusable receive-side batch state. Datagrams are received **directly
/// into pooled slabs** ([`crate::pool::BufferPool`]), truncated to their
/// wire length and frozen into [`Bytes`] for the decoder, which copies
/// out what it keeps so the slab can go straight back to the pool. One
/// instance lives on each event-loop thread and drains every socket the
/// loop hosts.
///
/// ## Adaptive size class
///
/// Slabs start at the [`crate::pool::DATAGRAM_MTU`] class — the right
/// size for every protocol control packet and MTU-sized data datagram. A
/// datagram that arrives larger is reported truncated by the kernel
/// (`MSG_TRUNC`); the batcher drops it (UDP loss semantics — the
/// protocol's recovery machinery re-requests the message exactly as it
/// would after a network drop) and promotes itself to the next class, so
/// the repair — and all further traffic — is received whole. Jumbo
/// senders therefore cost one recovery round-trip once per loop, never
/// silent corruption, and MTU-sized groups never pay jumbo-slab memory.
#[derive(Debug)]
pub struct RecvBatcher {
    /// Current slab size class (promoted on truncation, never demoted).
    class: SizeClass,
    /// Writable slabs awaiting datagrams; `None` slots were consumed by a
    /// freeze and are refilled from the pool on the next call.
    slabs: Vec<Option<bytes::BytesMut>>,
    /// `(wire bytes, source, slab class)` of each datagram drained by the
    /// last call, in arrival order. The class tags the slab for its
    /// eventual [`crate::pool::BufferPool::release`].
    out: Vec<(Bytes, SocketAddr, SizeClass)>,
    /// Datagrams dropped because they exceeded the current slab class.
    truncated: u64,
    /// Reused kernel-facing arrays of the Linux path (pointers re-derived
    /// from `slabs` on every call; capacity reused, never reallocated).
    #[cfg(all(target_os = "linux", feature = "mmsg"))]
    names: Vec<sys::sockaddr_storage>,
    #[cfg(all(target_os = "linux", feature = "mmsg"))]
    iovs: Vec<sys::iovec>,
    #[cfg(all(target_os = "linux", feature = "mmsg"))]
    msgs: Vec<sys::mmsghdr>,
}

// SAFETY: the raw pointers inside `iovs`/`msgs` are only ever read by the
// kernel during `recv_batch`, which re-derives every one of them from the
// owned slabs at the start of each call — they never dangle across a
// move of the batcher between threads.
#[cfg(all(target_os = "linux", feature = "mmsg"))]
unsafe impl Send for RecvBatcher {}

impl Default for RecvBatcher {
    fn default() -> Self {
        RecvBatcher::new()
    }
}

impl RecvBatcher {
    /// Creates a batcher starting at the MTU size class.
    #[must_use]
    pub fn new() -> Self {
        RecvBatcher {
            class: SizeClass::for_len(0),
            slabs: (0..BATCH).map(|_| None).collect(),
            out: Vec::with_capacity(BATCH),
            truncated: 0,
            #[cfg(all(target_os = "linux", feature = "mmsg"))]
            names: Vec::with_capacity(BATCH),
            #[cfg(all(target_os = "linux", feature = "mmsg"))]
            iovs: Vec::with_capacity(BATCH),
            #[cfg(all(target_os = "linux", feature = "mmsg"))]
            msgs: Vec::with_capacity(BATCH),
        }
    }

    /// The slab size class datagrams are currently received into.
    #[must_use]
    pub fn class(&self) -> SizeClass {
        self.class
    }

    /// Datagrams dropped so far because they overflowed the slab class
    /// (each one also promoted the class, so a given sender pays this at
    /// most once per larger size class per loop).
    #[must_use]
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Drains the datagrams filled by the last [`RecvBatcher::recv_batch`]
    /// in arrival order: `(wire bytes, source, slab class)`. The class
    /// must accompany the bytes to their eventual pool release.
    pub fn drain(&mut self) -> impl Iterator<Item = (Bytes, SocketAddr, SizeClass)> + '_ {
        self.out.drain(..)
    }

    /// Fills every consumed slab slot from the pool; on a pending class
    /// promotion, hands all old-class slabs back first.
    fn ensure_slabs(&mut self, pool: &mut BufferPool, promote: bool) {
        if promote {
            if let Some(next) = self.class.promote() {
                for slot in &mut self.slabs {
                    if let Some(slab) = slot.take() {
                        pool.release_unused(self.class, slab);
                    }
                }
                self.class = next;
            }
        }
        let size = self.class.size();
        for slot in &mut self.slabs {
            match slot {
                Some(slab) => slab.resize(size, 0),
                None => {
                    let mut slab = pool.acquire(self.class);
                    slab.resize(size, 0);
                    *slot = Some(slab);
                }
            }
        }
    }

    /// Receives a batch of datagrams into pooled slabs: up to [`BATCH`]
    /// per `recvmmsg(2)` call on Linux, one `recv_from` elsewhere. On a
    /// blocking socket the first datagram honors the read timeout
    /// (`MSG_WAITFORONE`); on a nonblocking socket an empty queue returns
    /// `WouldBlock` immediately — the event loop calls this only after
    /// `poll(2)` reported readiness. Returns how many datagrams were
    /// frozen into [`RecvBatcher::drain`].
    #[cfg(all(target_os = "linux", feature = "mmsg"))]
    pub fn recv_batch(
        &mut self,
        socket: &UdpSocket,
        pool: &mut BufferPool,
    ) -> std::io::Result<usize> {
        use std::os::fd::AsRawFd;
        self.out.clear();
        self.ensure_slabs(pool, false);
        // Re-derive the kernel-facing pointers into the reused arrays —
        // clear + extend keeps their capacity, so nothing allocates after
        // the first call.
        self.names.clear();
        self.names.resize(BATCH, sys::sockaddr_storage::ZERO);
        self.iovs.clear();
        self.iovs.extend(self.slabs.iter_mut().map(|slot| {
            let slab = slot.as_mut().expect("ensure_slabs filled every slot");
            sys::iovec { iov_base: slab.as_mut_ptr().cast(), iov_len: slab.len() }
        }));
        self.msgs.clear();
        for i in 0..BATCH {
            self.msgs.push(sys::mmsghdr {
                msg_hdr: sys::msghdr {
                    msg_name: self.names[i].bytes.as_mut_ptr().cast(),
                    msg_namelen: self.names[i].bytes.len() as u32,
                    msg_iov: &mut self.iovs[i],
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
        }
        // SAFETY: every mmsghdr points at live, distinct slabs owned by
        // `self` for the duration of the call (no Vec is touched between
        // the pointer derivation above and the syscall); vlen is the
        // allocated batch size. MSG_WAITFORONE makes the kernel honor the
        // socket timeout for the first datagram only.
        let got = unsafe {
            sys::recvmmsg(
                socket.as_raw_fd(),
                self.msgs.as_mut_ptr(),
                BATCH as u32,
                sys::MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let mut promote = false;
        for i in 0..got as usize {
            let msg = self.msgs[i];
            if msg.msg_hdr.msg_flags & sys::MSG_TRUNC != 0 {
                // Datagram larger than the slab: drop it (the recovery
                // protocol will re-request) and grow the class for
                // everything that follows. The slab stays reusable.
                self.truncated += 1;
                promote = true;
                continue;
            }
            // A source address the decoder does not recognize (unexpected
            // family) drops that datagram only.
            let Some(from) = sys::decode_addr(&self.names[i]) else { continue };
            let mut slab = self.slabs[i].take().expect("slab present for filled slot");
            slab.truncate(msg.msg_len as usize);
            self.out.push((slab.freeze(), from, self.class));
        }
        if promote {
            self.ensure_slabs(pool, true);
        }
        Ok(self.out.len())
    }

    /// Fallback drain: one `recv_from` into a pooled slab. Truncation
    /// cannot be detected portably, so a datagram that exactly fills the
    /// slab is treated as suspect — dropped and the class promoted —
    /// mirroring the Linux `MSG_TRUNC` behavior at worst one false
    /// positive per class step.
    #[cfg(not(all(target_os = "linux", feature = "mmsg")))]
    pub fn recv_batch(
        &mut self,
        socket: &UdpSocket,
        pool: &mut BufferPool,
    ) -> std::io::Result<usize> {
        self.out.clear();
        self.ensure_slabs(pool, false);
        let slab = self.slabs[0].as_mut().expect("ensure_slabs filled slot 0");
        let (len, from) = socket.recv_from(&mut slab[..])?;
        if len == slab.len() && self.class.promote().is_some() {
            self.truncated += 1;
            self.ensure_slabs(pool, true);
            return Ok(0);
        }
        let mut slab = self.slabs[0].take().expect("slab present");
        slab.truncate(len);
        self.out.push((slab.freeze(), from, self.class));
        Ok(1)
    }

    /// Hands every unconsumed slab back to the pool (loop shutdown).
    pub fn park(&mut self, pool: &mut BufferPool) {
        for slot in &mut self.slabs {
            if let Some(slab) = slot.take() {
                pool.release_unused(self.class, slab);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Readiness multiplexing.
// ---------------------------------------------------------------------------

/// A reusable `poll(2)` fd set: the event loop registers every socket it
/// hosts plus its waker, blocks once per wakeup, and drains the sockets
/// reported readable. On non-Linux targets (or with the `mmsg` feature
/// off) there is no declared `poll` binding; [`PollSet::wait`] degrades
/// to a bounded 1 ms nap that reports **every** socket readable, turning
/// the loop into a nonblocking sweep with identical semantics and worse
/// idle efficiency.
#[derive(Debug, Default)]
pub struct PollSet {
    #[cfg(all(target_os = "linux", feature = "mmsg"))]
    fds: Vec<sys::pollfd>,
    #[cfg(not(all(target_os = "linux", feature = "mmsg")))]
    fds: usize,
}

impl PollSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        PollSet::default()
    }

    /// Drops every registered fd (the loop re-registers after membership
    /// changes).
    pub fn clear(&mut self) {
        #[cfg(all(target_os = "linux", feature = "mmsg"))]
        self.fds.clear();
        #[cfg(not(all(target_os = "linux", feature = "mmsg")))]
        {
            self.fds = 0;
        }
    }

    /// Registers `socket` for readability; returns its index in the set.
    pub fn register(&mut self, socket: &UdpSocket) -> usize {
        #[cfg(all(target_os = "linux", feature = "mmsg"))]
        {
            use std::os::fd::AsRawFd;
            self.fds.push(sys::pollfd { fd: socket.as_raw_fd(), events: sys::POLLIN, revents: 0 });
            self.fds.len() - 1
        }
        #[cfg(not(all(target_os = "linux", feature = "mmsg")))]
        {
            let _ = socket;
            self.fds += 1;
            self.fds - 1
        }
    }

    /// Number of registered fds.
    #[must_use]
    pub fn len(&self) -> usize {
        #[cfg(all(target_os = "linux", feature = "mmsg"))]
        {
            self.fds.len()
        }
        #[cfg(not(all(target_os = "linux", feature = "mmsg")))]
        {
            self.fds
        }
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until at least one registered socket is readable or
    /// `timeout` elapses; returns how many are ready. `EINTR` reports as
    /// zero ready (the caller's loop re-iterates). The fallback build
    /// naps for at most 1 ms and reports everything ready.
    pub fn wait(&mut self, timeout: std::time::Duration) -> std::io::Result<usize> {
        #[cfg(all(target_os = "linux", feature = "mmsg"))]
        {
            for fd in &mut self.fds {
                fd.revents = 0;
            }
            // Round sub-millisecond timeouts up so a 200 µs deadline
            // waits 1 ms instead of spinning at zero.
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let ms = if ms == 0 && !timeout.is_zero() { 1 } else { ms };
            // SAFETY: `fds` is a live, initialized pollfd array whose
            // length matches nfds.
            let n = unsafe { sys::poll(self.fds.as_mut_ptr(), self.fds.len() as u64, ms) };
            if n < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(n as usize)
        }
        #[cfg(not(all(target_os = "linux", feature = "mmsg")))]
        {
            std::thread::sleep(timeout.min(std::time::Duration::from_millis(1)));
            Ok(self.fds)
        }
    }

    /// Whether the socket registered at `idx` was reported readable by
    /// the last [`PollSet::wait`].
    #[must_use]
    pub fn is_readable(&self, idx: usize) -> bool {
        #[cfg(all(target_os = "linux", feature = "mmsg"))]
        {
            self.fds[idx].revents & sys::POLLIN != 0
        }
        #[cfg(not(all(target_os = "linux", feature = "mmsg")))]
        {
            idx < self.fds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        (a, b, aa, ba)
    }

    #[test]
    fn send_to_many_reaches_every_destination() {
        let (tx, rx1, _, rx1_addr) = pair();
        let rx2 = UdpSocket::bind("127.0.0.1:0").expect("bind rx2");
        let rx2_addr = rx2.local_addr().unwrap();
        for rx in [&rx1, &rx2] {
            rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        }
        assert_eq!(send_to_many(&tx, b"batched", &[rx1_addr, rx2_addr]), 2);
        let mut buf = [0u8; 64];
        for rx in [&rx1, &rx2] {
            let (len, from) = rx.recv_from(&mut buf).expect("datagram arrives");
            assert_eq!(&buf[..len], b"batched");
            assert_eq!(from, tx.local_addr().unwrap());
        }
    }

    #[test]
    fn send_to_many_handles_more_than_one_batch() {
        let (tx, rx, _, rx_addr) = pair();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The same destination BATCH+3 times: exercises the chunked loop.
        let addrs = vec![rx_addr; BATCH + 3];
        assert_eq!(send_to_many(&tx, b"many", &addrs), BATCH + 3);
        let mut buf = [0u8; 16];
        for _ in 0..(BATCH + 3) {
            let (len, _) = rx.recv_from(&mut buf).expect("each copy arrives");
            assert_eq!(&buf[..len], b"many");
        }
    }

    #[test]
    fn recv_batch_drains_a_burst_with_sources() {
        let (tx, rx, _, rx_addr) = pair();
        rx.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
        for i in 0..5u8 {
            tx.send_to(&[i; 3], rx_addr).unwrap();
        }
        // Give loopback a moment to queue everything.
        std::thread::sleep(Duration::from_millis(50));
        let mut pool = BufferPool::new(1 << 20);
        let mut batcher = RecvBatcher::new();
        let mut seen = Vec::new();
        let mut last = 0;
        while seen.len() < 5 {
            let n = batcher.recv_batch(&rx, &mut pool).expect("burst arrives");
            assert!(n >= 1);
            last = n;
            for (bytes, from, class) in batcher.drain() {
                assert_eq!(from, tx.local_addr().unwrap());
                assert_eq!(bytes.len(), 3);
                assert_eq!(class.size(), crate::pool::DATAGRAM_MTU);
                seen.push(bytes[0]);
                pool.release(class, bytes);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Every slab the last batch released is back on the freelist: the
        // whole burst (5 × DATAGRAM_MTU) on the `recvmmsg` path, which
        // takes it in one call.
        let s = pool.stats().snapshot();
        assert_eq!(s.free_bytes, (last * crate::pool::DATAGRAM_MTU) as u64);
        assert_eq!(s.forfeited, 0);
    }

    #[test]
    fn recv_batch_times_out_like_recv_from() {
        let (_tx, rx, _, _) = pair();
        rx.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        let mut pool = BufferPool::new(1 << 20);
        let mut batcher = RecvBatcher::new();
        let err = batcher.recv_batch(&rx, &mut pool).expect_err("no datagram queued");
        assert!(
            matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "unexpected error kind: {err:?}"
        );
        batcher.park(&mut pool);
    }

    #[test]
    fn oversize_datagram_is_dropped_and_class_promoted() {
        let (tx, rx, _, rx_addr) = pair();
        rx.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
        let jumbo = vec![0xAB; crate::pool::DATAGRAM_MTU + 100];
        tx.send_to(&jumbo, rx_addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut pool = BufferPool::new(1 << 22);
        let mut batcher = RecvBatcher::new();
        assert_eq!(batcher.class().size(), crate::pool::DATAGRAM_MTU);
        // The jumbo datagram is dropped (truncated) and the class grows.
        let n = batcher.recv_batch(&rx, &mut pool).expect("recv succeeds");
        assert_eq!(n, 0);
        assert_eq!(batcher.truncated(), 1);
        assert!(batcher.class().size() > crate::pool::DATAGRAM_MTU);
        // A retransmission of the same payload now fits whole.
        tx.send_to(&jumbo, rx_addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let n = batcher.recv_batch(&rx, &mut pool).expect("retry arrives");
        assert_eq!(n, 1);
        let (bytes, _, class) = batcher.drain().next().expect("datagram present");
        assert_eq!(bytes.len(), jumbo.len());
        pool.release(class, bytes);
    }

    #[test]
    fn poll_set_reports_readiness() {
        let (tx, rx, _, rx_addr) = pair();
        let mut set = PollSet::new();
        let idx = set.register(&rx);
        assert_eq!(set.len(), 1);
        tx.send_to(b"wake", rx_addr).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let ready = set.wait(Duration::from_millis(500)).expect("poll succeeds");
        assert!(ready >= 1);
        assert!(set.is_readable(idx));
        let mut buf = [0u8; 16];
        let (len, _) = rx.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"wake");
    }
}
