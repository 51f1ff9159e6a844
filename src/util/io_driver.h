// Reactor I/O backend abstraction: readiness polling + durable vectored
// writes behind one interface, selectable at runtime.
//
// Two implementations:
//   epoll — the historical backend: epoll_{create1,ctl,wait} for readiness,
//           writev + fdatasync for WAL group commits. Default everywhere.
//   uring — io_uring via raw syscalls (no liburing dependency): readiness is
//           emulated with oneshot IORING_OP_POLL_ADD re-armed each wait()
//           (level-triggered, like epoll), and WAL commits submit an
//           IORING_OP_WRITEV -> IORING_OP_FSYNC(DATASYNC) chain linked with
//           IOSQE_IO_LINK so one io_uring_enter replaces the writev +
//           fdatasync syscall pair.
//
// Selection: RSPAXOS_IO_BACKEND=epoll|uring (default epoll). The uring
// backend is compile-guarded on <linux/io_uring.h> and probed at runtime
// (IORING_FEAT_EXT_ARG required for timed waits); when unavailable,
// make_io_driver() logs one line and falls back to epoll, so a binary built
// with uring support still runs on older kernels.
//
// Threading contract: a driver instance is single-owner — all calls must come
// from one thread at a time (the reactor's loop thread, or the WAL flusher).
// Each reactor and each FileWal flusher owns its own driver instance; they do
// NOT share a ring, because the flusher runs on its own thread and a shared
// ring would put a lock on both hot paths (see DESIGN.md §12).
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace rspaxos::util {

/// One readiness event. `events` uses the EPOLL* bit values on both backends
/// (poll and epoll share them for IN/OUT/ERR/HUP/RDHUP).
struct IoEvent {
  void* tag = nullptr;
  uint32_t events = 0;
};

enum class IoBackend { kEpoll, kUring };

class IoDriver {
 public:
  virtual ~IoDriver() = default;

  /// Backend label for metrics/bench metadata ("epoll" or "uring").
  virtual const char* name() const = 0;

  /// False when construction failed (caller should treat like epoll_create1
  /// failure). make_io_driver() never returns a non-ok driver.
  virtual bool ok() const = 0;

  /// Register / re-arm / remove interest. `events` are EPOLL* bits.
  virtual bool add(int fd, uint32_t events, void* tag) = 0;
  virtual bool mod(int fd, uint32_t events, void* tag) = 0;
  virtual void del(int fd) = 0;

  /// Blocks up to `timeout_ms` (-1 = forever, 0 = poll) for readiness;
  /// returns the number of events written to `out` (max `max_events`), 0 on
  /// timeout, -1 on error. Level-triggered on both backends.
  virtual int wait(IoEvent* out, int max_events, int timeout_ms) = 0;

  /// Writes every iovec fully (resuming partial writes, chunking at IOV_MAX)
  /// then makes the data durable (fdatasync-equivalent). Mutates the iovecs
  /// as it consumes them. Returns bytes actually written — on error that is
  /// fewer than the batch total, but the prefix may still have reached the
  /// file and must be counted. *synced is true iff every byte was written AND
  /// the sync succeeded. Must not be mixed with poll registrations on the
  /// uring backend (the WAL owns a dedicated driver).
  virtual size_t write_and_sync(int fd, std::vector<iovec>& iov, bool* synced) = 0;
};

/// Backend requested via RSPAXOS_IO_BACKEND (unset/unknown -> epoll).
IoBackend requested_io_backend();

/// True when the running kernel accepts io_uring_setup and offers the
/// features this driver needs (EXT_ARG timed waits). Probed once.
bool uring_supported();

/// Effective backend name make_io_driver() will pick ("epoll"/"uring") —
/// for bench/metrics metadata.
const char* io_backend_name();

/// Builds the requested backend, falling back to epoll (with one WARN line)
/// when uring was requested but is compiled out or unsupported.
std::unique_ptr<IoDriver> make_io_driver();

/// Writes every iovec fully, resuming after partial writes and chunking the
/// array at IOV_MAX. Mutates the iovecs as it consumes them. Returns bytes
/// actually written (shared by the epoll backend and the uring short-write
/// recovery path; historically lived in file_wal.cpp).
size_t writev_full(int fd, std::vector<iovec>& iov);

}  // namespace rspaxos::util
