// Compatibility shim for perfbench/repo_bench.cpp, its only reader: the
// benchmark stamps an I/O backend name into its result line. The host has one
// I/O path (the loop's epoll, the WAL's writev + fdatasync), so this always
// answers epoll. The next benchmark change moves repo_bench off these names
// and deletes this header.
#pragma once

namespace rspaxos::util {

enum class IoBackend { kEpoll, kUring };

inline IoBackend requested_io_backend() { return IoBackend::kEpoll; }

}  // namespace rspaxos::util
