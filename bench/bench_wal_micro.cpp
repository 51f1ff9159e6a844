// WAL backend micro-benchmark: FileWal group-commit throughput, epoll-style
// write+fdatasync vs the io_uring WRITEV→FSYNC linked-chain backend
// (DESIGN.md §12), on the real filesystem. This is the WAL-fsync-bound
// measurement the io_uring backend is judged against: bench_rpc_micro never
// touches a disk and bench_multi_group runs on the simulator, so neither can
// see a syscall-path difference. Closed-loop with a bounded in-flight window
// so group commit has company to amortize, exactly like a leader with
// pipelined proposals. Writes BENCH_wal.json; rows for a backend the kernel
// or build can't provide are skipped (and say so), never faked.
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "storage/file_wal.h"
#include "util/io_driver.h"

namespace rspaxos::bench {
namespace {

struct Row {
  std::string backend;
  size_t record_bytes = 0;
  int appends = 0;
  double wall_ms = 0;
  double appends_per_sec = 0;
  double mbps = 0;  // payload Mbit/s, same convention as throughput_mbps()
  uint64_t flush_ops = 0;
};

/// One closed-loop run: `total` appends of `record_bytes`, spread round-robin
/// over `groups`, at most `window` in flight (durability callbacks refill).
Row run_one(const std::string& backend, size_t record_bytes, int total, uint32_t groups,
            int window) {
  ::setenv("RSPAXOS_IO_BACKEND", backend.c_str(), 1);
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_bench_wal_" + backend + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Row row;
  row.backend = backend;
  row.record_bytes = record_bytes;
  row.appends = total;
  {
    auto opened = storage::FileWal::open((dir / "wal").string(),
                                         /*group_commit_window_us=*/200,
                                         storage::FileWal::kDefaultSegmentBytes, groups);
    if (!opened.is_ok()) {
      std::fprintf(stderr, "FileWal open failed: %s\n",
                   opened.status().to_string().c_str());
      std::exit(1);
    }
    auto wal = std::move(opened).value();

    std::mutex mu;
    std::condition_variable cv;
    int issued = 0, durable = 0;
    Bytes record(record_bytes, 0x5a);

    auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lk(mu);
    while (durable < total) {
      while (issued < total && issued - durable < window) {
        uint32_t g = static_cast<uint32_t>(issued) % groups;
        ++issued;
        lk.unlock();
        wal->append(g, record, [&](Status, storage::WalPos) {
          std::lock_guard<std::mutex> g2(mu);
          ++durable;
          cv.notify_one();
        });
        lk.lock();
      }
      // Wake only when there is something to do: a free window slot while
      // appends remain, or full completion. (A predicate that is true while
      // merely "not full" spins once issuing is done, starving the flusher's
      // durability callbacks of the mutex on small machines.)
      cv.wait(lk, [&] {
        return durable == total || (issued < total && issued - durable < window);
      });
    }
    double wall_us = static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    row.wall_ms = wall_us / 1e3;
    row.appends_per_sec = total / (wall_us / 1e6);
    row.mbps = static_cast<double>(total) * static_cast<double>(record_bytes) * 8.0 /
               wall_us;  // bits per us == Mbit/s
    row.flush_ops = wal->flush_ops();
  }
  std::filesystem::remove_all(dir);
  return row;
}

int main_impl() {
  constexpr uint32_t kGroups = 4;
  constexpr int kWindow = 16;
  struct Point {
    size_t bytes;
    int total;
  };
  // 256B: pure fsync-bound (frame overhead dominates); 64KiB: the chain's
  // WRITEV leg carries real data.
  const Point points[] = {{256, 2000}, {64u << 10, 400}};

  std::vector<std::string> backends = {"epoll"};
  if (util::uring_supported()) {
    backends.push_back("uring");
  } else {
    std::printf("io_uring unavailable (build or kernel): epoll rows only\n");
  }

  std::vector<Row> rows;
  std::printf("=== FileWal group commit: epoll write+fdatasync vs io_uring linked chain ===\n");
  std::printf("(%u groups, window %d, tmpfs-or-disk at %s)\n\n", kGroups, kWindow,
              std::filesystem::temp_directory_path().c_str());
  std::printf("backend  rec bytes |  appends/s      Mb/s   wall ms   flushes\n");
  for (const Point& pt : points) {
    for (const std::string& b : backends) {
      // Untimed warmup: page cache, allocator and flusher steady state.
      run_one(b, pt.bytes, pt.total / 10, kGroups, kWindow);
      Row r = run_one(b, pt.bytes, pt.total, kGroups, kWindow);
      std::printf("%-8s %9zu | %10.0f %9.2f %9.1f %9llu\n", r.backend.c_str(),
                  r.record_bytes, r.appends_per_sec, r.mbps, r.wall_ms,
                  static_cast<unsigned long long>(r.flush_ops));
      rows.push_back(std::move(r));
    }
  }

  std::FILE* f = std::fopen("BENCH_wal.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_wal.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"wal_backend_micro\", %s,\n",
               bench_meta_json().c_str());
  std::fprintf(f,
               "  \"note\": \"real-filesystem FileWal group commit, closed loop "
               "(4 groups, window 16); io_backend above is the build default, each "
               "row names the backend it actually ran\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"record_bytes\": %zu, \"appends\": %d, "
                 "\"appends_per_sec\": %.0f, \"mbps\": %.2f, \"wall_ms\": %.1f, "
                 "\"flush_ops\": %llu}%s\n",
                 r.backend.c_str(), r.record_bytes, r.appends, r.appends_per_sec, r.mbps,
                 r.wall_ms, static_cast<unsigned long long>(r.flush_ops),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_wal.json\n");
  return 0;
}

}  // namespace
}  // namespace rspaxos::bench

int main() { return rspaxos::bench::main_impl(); }
