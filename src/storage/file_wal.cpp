#include "storage/file_wal.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/marshal.h"

namespace rspaxos::storage {
namespace {

constexpr uint32_t kManifestMagic = 0x52535741;  // "RSWA"
constexpr uint32_t kManifestVersion = 2;         // v2: group-tagged records

/// Shared WAL metric handles (one label-less set per process; both WAL
/// implementations report under the same names).
struct WalMetrics {
  obs::Counter* bytes_durable;
  obs::Counter* flushes;
  obs::Counter* truncated;
  obs::Counter* truncates;
  obs::HistogramMetric* fsync_us;
  obs::HistogramMetric* batch_records;

  static WalMetrics& get() {
    static WalMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      auto* w = new WalMetrics();
      w->bytes_durable =
          &reg.counter("rsp_wal_bytes_durable", "Framed WAL bytes written and fsynced");
      w->flushes = &reg.counter("rsp_wal_flush_total", "Group-commit flush operations");
      w->truncated = &reg.counter("rsp_wal_truncated_bytes",
                                  "Durable WAL bytes reclaimed by prefix truncation");
      w->truncates =
          &reg.counter("rsp_wal_truncate_total", "WAL prefix truncation operations");
      w->fsync_us =
          &reg.histogram("rsp_wal_fsync_us", "Write+fsync latency per group-commit batch");
      w->batch_records =
          &reg.histogram("rsp_wal_batch_records", "Records coalesced per group-commit batch");
      return w;
    }();
    return *m;
  }
};

// Record payloads open with a u32 group key: group << 1 | is_marker. Data
// records carry the caller's bytes after the key; marker records embed the
// group's replacement head (u32 count, then u32 len + bytes per record).
constexpr uint32_t kGkMarkerBit = 1;

/// Writes every iovec fully, resuming after partial writes and chunking the
/// array at IOV_MAX. Mutates the iovecs as it consumes them. Returns the
/// bytes actually written: on error that is fewer than the total, but the
/// prefix may still have reached the file.
size_t writev_full(int fd, std::vector<iovec>& iov) {
  size_t i = 0;
  size_t written = 0;
  while (i < iov.size()) {
    size_t cnt = std::min<size_t>(iov.size() - i, IOV_MAX);
    ssize_t n = ::writev(fd, &iov[i], static_cast<int>(cnt));
    if (n < 0) {
      if (errno == EINTR) continue;
      return written;
    }
    written += static_cast<size_t>(n);
    size_t left = static_cast<size_t>(n);
    while (left > 0 && i < iov.size()) {
      if (left >= iov[i].iov_len) {
        left -= iov[i].iov_len;
        ++i;
      } else {
        iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + left;
        iov[i].iov_len -= left;
        left = 0;
      }
    }
  }
  return written;
}

inline uint32_t payload_gk(BytesView payload) {
  uint32_t gk;
  std::memcpy(&gk, payload.data(), 4);
  return gk;
}

/// Frames one data record for `g` up to its body: u32 len | u32 crc | u32 gk
/// | head. The body follows on disk; the CRC covers gk + head + body (the
/// whole payload), chained over the parts, so the body is never copied.
Bytes frame_data_head(uint32_t g, const WalRecord& record) {
  uint32_t gk = g << 1;
  uint8_t gkb[4];
  std::memcpy(gkb, &gk, 4);
  uint32_t crc = crc32c(record.head, crc32c(gkb, 4));
  crc = crc32c(record.body, crc);
  Writer w(record.head.size() + 12);
  w.u32(static_cast<uint32_t>(record.size()) + 4);
  w.u32(crc);
  w.u32(gk);
  w.raw(record.head);
  return w.take();
}

/// Frames one truncation marker for `g` with its embedded replacement head.
Bytes frame_marker_record(uint32_t g, const std::vector<Bytes>& head) {
  size_t sz = 8;
  for (const Bytes& r : head) sz += 4 + r.size();
  Writer p(sz);
  p.u32((g << 1) | kGkMarkerBit);
  p.u32(static_cast<uint32_t>(head.size()));
  for (const Bytes& r : head) {
    p.u32(static_cast<uint32_t>(r.size()));
    p.raw(r);
  }
  const Bytes& payload = p.buffer();
  Writer w(payload.size() + 8);
  w.u32(static_cast<uint32_t>(payload.size()));
  w.u32(crc32c(payload));
  w.raw(payload);
  return w.take();
}

std::string seg_file(const std::string& path, uint64_t seq) {
  if (seq == 0) return path;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%08" PRIu64 ".seg", seq);
  return path + suffix;
}

void fsync_parent_dir(const std::string& path) {
  std::filesystem::path p(path);
  std::string dir = p.parent_path().empty() ? "." : p.parent_path().string();
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Frame payload handed to stream_segment's visitor, with the frame's byte
/// offset in the segment.
using FrameFn = std::function<void(BytesView payload, uint64_t frame_off)>;

/// Streams the valid frame prefix of one segment file through `fn` (which may
/// be null for a pure scan) using a rolling buffer — memory stays
/// O(chunk + largest record). Returns the byte length of the valid prefix and
/// sets *clean when the file ends exactly on a frame boundary (no torn tail,
/// no CRC mismatch). A missing file reads as empty and clean — after
/// per-group reclamation the segment sequence may have holes.
uint64_t stream_segment(const std::string& path,
                        const FrameFn* fn, bool* clean) {
  *clean = true;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  constexpr size_t kChunk = 64 * 1024;
  Bytes buf(kChunk);
  size_t filled = 0;
  bool eof = false;
  uint64_t valid = 0;
  bool corrupt = false;
  while (true) {
    if (!eof) {
      if (filled == buf.size()) buf.resize(buf.size() * 2);  // record > buffer
      ssize_t n = ::read(fd, buf.data() + filled, buf.size() - filled);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) {
        eof = true;
      } else {
        filled += static_cast<size_t>(n);
      }
    }
    size_t pos = 0;
    while (filled - pos >= 8) {
      uint32_t len, crc;
      std::memcpy(&len, buf.data() + pos, 4);
      std::memcpy(&crc, buf.data() + pos + 4, 4);
      if (filled - pos < 8 + static_cast<size_t>(len)) break;  // need more data
      BytesView payload(buf.data() + pos + 8, len);
      if (crc32c(payload) != crc) {  // corrupt frame: stop, prefix stays valid
        corrupt = true;
        break;
      }
      if (fn) (*fn)(payload, valid);
      pos += 8 + len;
      valid += 8 + len;
    }
    if (pos > 0) {
      std::memmove(buf.data(), buf.data() + pos, filled - pos);
      filled -= pos;
    }
    if (corrupt || eof) break;
  }
  ::close(fd);
  // Leftover bytes at EOF are a torn tail record (crash mid-append).
  if (corrupt || filled > 0) *clean = false;
  return valid;
}

StatusOr<uint64_t> read_manifest(const std::string& man_path) {
  int fd = ::open(man_path.c_str(), O_RDONLY);
  if (fd < 0) return Status::not_found("no wal manifest");
  Bytes buf(64);
  ssize_t n = ::read(fd, buf.data(), buf.size());
  ::close(fd);
  if (n < 20) return Status::corruption("wal manifest too short");
  buf.resize(static_cast<size_t>(n));
  Reader r(buf);
  uint32_t magic = 0, version = 0, crc = 0;
  uint64_t first_seq = 0;
  RSP_RETURN_IF_ERROR(r.u32(magic));
  RSP_RETURN_IF_ERROR(r.u32(version));
  RSP_RETURN_IF_ERROR(r.u64(first_seq));
  RSP_RETURN_IF_ERROR(r.u32(crc));
  if (magic != kManifestMagic || version != kManifestVersion) {
    return Status::corruption("bad wal manifest header");
  }
  if (crc32c(BytesView(buf.data(), 16)) != crc) {
    return Status::corruption("wal manifest crc mismatch");
  }
  return first_seq;
}

}  // namespace

std::string FileWal::segment_path(uint64_t seq) const { return seg_file(path_, seq); }

StatusOr<std::unique_ptr<FileWal>> FileWal::open(const std::string& path,
                                                 int64_t group_commit_window_us,
                                                 size_t segment_bytes, uint32_t num_groups) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove(path + ".manifest.tmp", ec);  // aborted manifest commit

  if (num_groups == 0) return Status::invalid("wal: num_groups must be >= 1");

  uint64_t first_seq = 0;
  auto man = read_manifest(path + ".manifest");
  if (man.is_ok()) {
    first_seq = man.value();
  } else if (man.status().code() != Code::kNotFound &&
             man.status().code() != Code::kCorruption) {
    // The manifest is an advisory cleanup hint since the marker-based format;
    // a stale or old-version manifest just means no pre-deletion.
    return man.status();
  }

  // Discover segments on disk: the bare path is segment 0; rotated segments
  // are `path.<seq>.seg`. Anything below the manifest's first segment is a
  // leftover from a crash after physical reclamation — delete it now.
  fs::path p(path);
  fs::path dir = p.parent_path().empty() ? fs::path(".") : p.parent_path();
  std::string base = p.filename().string();
  uint64_t active_seq = first_seq;
  auto consider = [&](uint64_t seq) {
    if (seq < first_seq) {
      fs::remove(seg_file(path, seq), ec);
    } else if (seq > active_seq) {
      active_seq = seq;
    }
  };
  if (fs::exists(p, ec)) consider(0);
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    std::string name = it->path().filename().string();
    // base + "." + 8 digits + ".seg"
    if (name.size() != base.size() + 13 || name.compare(0, base.size(), base) != 0 ||
        name[base.size()] != '.' || name.compare(name.size() - 4, 4, ".seg") != 0) {
      continue;
    }
    uint64_t seq = 0;
    bool digits = true;
    for (size_t i = base.size() + 1; i < name.size() - 4; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (digits && seq > 0) consider(seq);
  }

  std::string active = seg_file(path, active_seq);
  int fd = ::open(active.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::internal("open(" + active + "): " + std::strerror(errno));
  }
  // Repair a torn/corrupt tail down to the longest valid frame prefix so the
  // log keeps accepting appends that replay cleanly after the damage.
  bool clean = false;
  uint64_t valid = stream_segment(active, nullptr, &clean);
  if (!clean && ::ftruncate(fd, static_cast<off_t>(valid)) != 0) {
    ::close(fd);
    return Status::internal("ftruncate(" + active + "): " + std::strerror(errno));
  }

  // Rebuild the per-group liveness state (which groups touch each segment,
  // each group's newest marker, live framed bytes) from one scan pass.
  ScanState scan;
  for (uint64_t s = first_seq; s <= active_seq; ++s) {
    bool seg_clean = false;
    FrameFn index = [&](BytesView payload, uint64_t) {
      if (payload.size() < 4) return;
      uint32_t gk = payload_gk(payload);
      uint32_t g = gk >> 1;
      scan.seg_groups[s].insert(g);
      uint64_t framed = 8 + payload.size();
      if (gk & kGkMarkerBit) {
        scan.marker_seg[g] = s;
        scan.live_bytes[g] = framed;  // everything before the marker is dead
      } else {
        scan.live_bytes[g] += framed;
      }
    };
    stream_segment(seg_file(path, s), &index, &seg_clean);
    if (!seg_clean && s != active_seq) break;  // unreachable suffix
  }

  return std::unique_ptr<FileWal>(new FileWal(path, group_commit_window_us, segment_bytes,
                                              num_groups, first_seq, active_seq, fd,
                                              static_cast<size_t>(valid), std::move(scan)));
}

FileWal::FileWal(std::string path, int64_t window_us, size_t segment_bytes,
                 uint32_t num_groups, uint64_t first_seq, uint64_t active_seq,
                 int active_fd, size_t active_size, ScanState scan)
    : path_(std::move(path)), window_us_(window_us), segment_bytes_(segment_bytes),
      num_groups_(num_groups), fd_(active_fd), first_seq_(first_seq),
      active_seq_(active_seq), active_size_(active_size), live_(std::move(scan)) {
  group_counters_.reserve(num_groups_);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    group_counters_.push_back(std::make_unique<GroupCounters>());
    auto mit = live_.marker_seg.find(g);
    if (mit != live_.marker_seg.end()) group_counters_[g]->marker_seg.store(mit->second);
  }
  // Finish any physical reclamation a pre-crash truncation committed but did
  // not complete, then start the flusher.
  reclaim_segments();
  flusher_ = std::thread([this] { flusher_loop(); });
}

FileWal::~FileWal() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  ::close(fd_);
}

void FileWal::stop() {
  drop_callbacks_.store(true);
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void FileWal::append(uint32_t g, WalRecord record, Wal::DurableFn cb) {
  Pending p;
  p.group = g;
  p.framed_head = frame_data_head(g, record);
  p.body = std::move(record.body);
  p.cb = std::move(cb);
  bool was_empty;
  {
    std::lock_guard<std::mutex> lk(mu_);
    was_empty = staged_.empty();
    staged_.push_back(std::move(p));
  }
  // Only an append onto an empty stage can find the flusher waiting for
  // work. A non-empty stage means the flusher is already awake for it: in
  // its group-commit window (which waits on stopping_ alone, so a notify
  // there is a spurious wake) or mid-flush, after which it re-checks
  // staged_ under the lock before sleeping.
  if (was_empty) cv_.notify_one();
}

void FileWal::truncate_prefix(uint32_t g, std::vector<Bytes> head, Wal::TruncateFn cb) {
  Pending p;
  p.group = g;
  p.truncate = true;
  p.head = std::move(head);
  p.tcb = std::move(cb);
  {
    std::lock_guard<std::mutex> lk(mu_);
    staged_.push_back(std::move(p));
  }
  cv_.notify_one();
}

uint64_t FileWal::group_bytes_flushed(uint32_t g) const {
  return g < group_counters_.size() ? group_counters_[g]->flushed.load() : 0;
}

uint64_t FileWal::group_truncated_bytes(uint32_t g) const {
  return g < group_counters_.size() ? group_counters_[g]->truncated.load() : 0;
}

void FileWal::set_flush_observer(std::function<void(int64_t)> fn) {
  std::lock_guard<std::mutex> lk(observer_mu_);
  flush_observer_ = std::move(fn);
}

void FileWal::flusher_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_.wait(lk, [this] { return stopping_ || !staged_.empty(); });
    if (staged_.empty() && stopping_) break;
    if (staged_.front().truncate) {
      Pending t = std::move(staged_.front());
      staged_.pop_front();
      lk.unlock();
      do_truncate(std::move(t));
      lk.lock();
      continue;
    }
    // Group-commit window: let closely-following appends join this batch —
    // from every group on the machine, so shards share fsyncs.
    if (window_us_ > 0 && !stopping_) {
      cv_.wait_for(lk, std::chrono::microseconds(window_us_), [this] { return stopping_; });
    }
    // A truncation marker is a barrier: flush everything staged before it,
    // loop back around to process it in order.
    std::deque<Pending> batch;
    while (!staged_.empty() && !staged_.front().truncate) {
      batch.push_back(std::move(staged_.front()));
      staged_.pop_front();
    }
    lk.unlock();
    flush_batch(std::move(batch));
    lk.lock();
  }
}

void FileWal::flush_batch(std::deque<Pending> batch) {
  auto flush_start = std::chrono::steady_clock::now();
  // The whole group-commit batch goes down in one vectored write (chunked
  // at IOV_MAX by writev_full), not one write() per record: each record's
  // framed head, then its body straight from the caller's buffer.
  size_t nbytes = 0;
  std::vector<iovec> iov;
  iov.reserve(2 * batch.size());
  for (const Pending& p : batch) {
    if (p.framed_head.empty()) continue;
    iov.push_back({const_cast<uint8_t*>(p.framed_head.data()), p.framed_head.size()});
    if (!p.body.empty()) iov.push_back({const_cast<uint8_t*>(p.body.data()), p.body.size()});
    nbytes += p.framed_size();
  }
  // Roll to a fresh segment at the batch boundary (frames never span
  // segments). Best-effort: on failure keep appending to the full segment.
  if (active_size_ > 0 && active_size_ + nbytes > segment_bytes_) {
    int nfd = create_segment(active_seq_.load() + 1);
    if (nfd >= 0) {
      ::close(fd_);
      fd_ = nfd;
      active_seq_.fetch_add(1);
      active_size_ = 0;
    }
  }
  const uint64_t seg = active_seq_.load();
  const uint64_t base_off = active_size_;
  size_t wrote = broken_ ? 0 : writev_full(fd_, iov);
  bool write_ok = !broken_ && wrote == nbytes && ::fdatasync(fd_) == 0;
  flush_ops_.fetch_add(1);
  if (write_ok) {
    active_size_ += wrote;
    bytes_flushed_.fetch_add(wrote);
    for (const Pending& p : batch) {
      if (p.framed_head.empty()) continue;
      live_.seg_groups[seg].insert(p.group);
      live_.live_bytes[p.group] += p.framed_size();
      if (p.group < group_counters_.size()) {
        group_counters_[p.group]->flushed.fetch_add(p.framed_size());
      }
    }
  } else if (!broken_ && ::ftruncate(fd_, static_cast<off_t>(base_off)) != 0) {
    // The failed batch may have left a torn frame (or whole frames nobody
    // was told are durable) at the tail. It is cut off so the next batch
    // lands where this one began; if the cut fails, nothing more is written.
    broken_ = true;
  }
  int64_t fsync_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - flush_start)
                         .count();
  WalMetrics& wm = WalMetrics::get();
  if (write_ok) wm.bytes_durable->inc(wrote);
  wm.flushes->inc();
  wm.fsync_us->observe(fsync_us);
  wm.batch_records->observe(static_cast<int64_t>(batch.size()));
  {
    std::lock_guard<std::mutex> olk(observer_mu_);
    if (flush_observer_) flush_observer_(fsync_us);
  }
  Status st = write_ok ? Status::ok() : Status::internal("wal write/fsync failed");
  uint64_t off = base_off;
  for (Pending& p : batch) {
    WalPos pos;
    if (write_ok) pos = WalPos{seg, off, p.framed_size()};
    off += p.framed_size();
    if (p.cb && !drop_callbacks_.load()) p.cb(st, pos);
  }
}

int FileWal::create_segment(uint64_t seq) {
  std::string sp = seg_file(path_, seq);
  int fd = ::open(sp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) return -1;
  // Make the directory entry durable before anything references the segment.
  fsync_parent_dir(path_);
  return fd;
}

Status FileWal::write_manifest(uint64_t first_seq) {
  Writer w(20);
  w.u32(kManifestMagic);
  w.u32(kManifestVersion);
  w.u64(first_seq);
  w.u32(crc32c(w.buffer()));
  Bytes body = w.take();
  std::string tmp = path_ + ".manifest.tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::internal("open(" + tmp + "): " + std::strerror(errno));
  size_t off = 0;
  while (off < body.size()) {
    ssize_t n = ::write(fd, body.data() + off, body.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::internal("write wal manifest: " + std::string(std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::internal("fsync wal manifest");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), (path_ + ".manifest").c_str()) != 0) {
    return Status::internal("rename wal manifest: " + std::string(std::strerror(errno)));
  }
  fsync_parent_dir(path_);
  return Status::ok();
}

void FileWal::do_truncate(Pending t) {
  // The marker (with its embedded replacement head) goes into a brand-new
  // segment; its fdatasync is the commit point. Before it, the group's old
  // records (plus an inert partial marker) are authoritative; after it,
  // replay(g) starts at the marker. A crash between the two leaves a torn
  // tail that open() trims — no manifest dance needed for correctness.
  auto start = std::chrono::steady_clock::now();
  if (broken_) {
    if (t.tcb && !drop_callbacks_.load()) t.tcb(Status::internal("wal truncate: log failed"));
    return;
  }
  uint64_t new_seq = active_seq_.load() + 1;
  int nfd = create_segment(new_seq);
  if (nfd < 0) {
    if (t.tcb && !drop_callbacks_.load()) {
      t.tcb(Status::internal("wal truncate: create segment failed"));
    }
    return;
  }
  Bytes marker = frame_marker_record(t.group, t.head);
  std::vector<iovec> iov{{const_cast<uint8_t*>(marker.data()), marker.size()}};
  if (writev_full(nfd, iov) != marker.size() || ::fdatasync(nfd) != 0) {
    ::close(nfd);
    ::unlink(seg_file(path_, new_seq).c_str());
    if (t.tcb && !drop_callbacks_.load()) {
      t.tcb(Status::internal("wal truncate: marker write failed"));
    }
    return;
  }
  // Committed. The group's reclaimed bytes are everything it had live before
  // this marker; physical segment reclamation is a shared-log concern and
  // happens below, independent of what this group's number comes out to.
  ::close(fd_);
  fd_ = nfd;
  active_seq_.store(new_seq);
  active_size_ = marker.size();
  uint64_t reclaimed = live_.live_bytes[t.group];
  live_.live_bytes[t.group] = marker.size();
  live_.marker_seg[t.group] = new_seq;
  live_.seg_groups[new_seq].insert(t.group);
  if (t.group < group_counters_.size()) group_counters_[t.group]->marker_seg.store(new_seq);
  reclaim_segments();

  bytes_flushed_.fetch_add(marker.size());
  flush_ops_.fetch_add(1);
  if (t.group < group_counters_.size()) {
    group_counters_[t.group]->flushed.fetch_add(marker.size());
    group_counters_[t.group]->truncated.fetch_add(reclaimed);
  }
  WalMetrics& wm = WalMetrics::get();
  wm.bytes_durable->inc(marker.size());
  wm.flushes->inc();
  wm.truncated->inc(reclaimed);
  wm.truncates->inc();
  wm.fsync_us->observe(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  if (t.tcb && !drop_callbacks_.load()) t.tcb(reclaimed);
}

void FileWal::reclaim_segments() {
  // A sealed segment is dead once every group with records in it has its
  // newest marker in a later segment — those records can never be replayed.
  // Groups that never truncated keep their segments pinned (their whole
  // history is still live). Unlinking can leave holes; replay and the scan
  // treat missing segments as empty.
  uint64_t active = active_seq_.load();
  uint64_t new_first = active;
  for (auto it = live_.seg_groups.begin(); it != live_.seg_groups.end();) {
    uint64_t s = it->first;
    if (s >= active) {
      new_first = std::min(new_first, s);
      ++it;
      continue;
    }
    bool dead = true;
    for (uint32_t g : it->second) {
      auto mit = live_.marker_seg.find(g);
      if (mit == live_.marker_seg.end() || mit->second <= s) {
        dead = false;
        break;
      }
    }
    if (dead) {
      ::unlink(seg_file(path_, s).c_str());
      it = live_.seg_groups.erase(it);
    } else {
      new_first = std::min(new_first, s);
      ++it;
    }
  }
  if (new_first > first_seq_.load()) {
    // Advisory hint only (open() re-derives liveness from the markers), so a
    // manifest write failure is not a truncation failure.
    (void)write_manifest(new_first);
    first_seq_.store(new_first);
  }
}

void FileWal::replay(uint32_t g, const Wal::ReplayFn& fn) {
  // Pass 1: locate the group's newest durable marker (segment + ordinal
  // within the segment's valid prefix). Streams files only — no shared
  // mutable state, so replay is safe alongside the flusher as long as the
  // caller is not appending to this group concurrently (the usual recovery
  // contract).
  uint64_t first = first_seq_.load();
  uint64_t last = active_seq_.load();
  bool found = false;
  uint64_t mseg = 0, mord = 0;
  for (uint64_t s = first; s <= last; ++s) {
    uint64_t ord = 0;
    bool clean = false;
    FrameFn index = [&](BytesView payload, uint64_t) {
      if (payload.size() >= 4) {
        uint32_t gk = payload_gk(payload);
        if ((gk & kGkMarkerBit) != 0 && (gk >> 1) == g) {
          found = true;
          mseg = s;
          mord = ord;
        }
      }
      ++ord;
    };
    stream_segment(seg_file(path_, s), &index, &clean);
    if (!clean) {  // everything after a torn/corrupt frame is unreachable
      last = s;
      break;
    }
  }

  // Pass 2: emit the marker's embedded head, then the group's data records
  // after it (or the whole history when the group never truncated).
  bool stop = false;
  for (uint64_t s = found ? mseg : first; s <= last && !stop; ++s) {
    uint64_t ord = 0;
    bool clean = false;
    FrameFn emit = [&](BytesView payload, uint64_t frame_off) {
      uint64_t my = ord++;
      if (stop || payload.size() < 4) return;
      uint32_t gk = payload_gk(payload);
      if ((gk >> 1) != g) return;
      if (found && s == mseg && my < mord) return;  // superseded by the marker
      if ((gk & kGkMarkerBit) != 0) {
        if (!found || s != mseg || my != mord) return;  // stale duplicate marker
        Reader r(BytesView(payload.data() + 4, payload.size() - 4));
        uint32_t count = 0;
        if (!r.u32(count).is_ok()) {
          stop = true;  // malformed marker: treat like a corrupt frame
          return;
        }
        for (uint32_t i = 0; i < count && !stop; ++i) {
          uint32_t len = 0;
          BytesView rec;
          if (!r.u32(len).is_ok() || !r.view(len, rec).is_ok()) {
            stop = true;
            return;
          }
          fn(rec, WalPos{});  // inside the marker frame: not addressable
        }
      } else {
        fn(BytesView(payload.data() + 4, payload.size() - 4),
           WalPos{s, frame_off, 8 + payload.size()});
      }
    };
    stream_segment(seg_file(path_, s), &emit, &clean);
    if (!clean) break;
  }
}

StatusOr<Bytes> FileWal::read(uint32_t g, WalPos pos) const {
  if (!pos.valid() || pos.len < 12) return Status::not_found("wal position not live");
  if (g < group_counters_.size() && pos.seg < group_counters_[g]->marker_seg.load()) {
    return Status::not_found("wal position truncated");
  }
  std::string sp = seg_file(path_, pos.seg);
  int fd = ::open(sp.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::not_found("wal segment reclaimed");
    return Status::internal("open(" + sp + "): " + std::strerror(errno));
  }
  Bytes frame(pos.len);
  size_t got = 0;
  while (got < frame.size()) {
    ssize_t n = ::pread(fd, frame.data() + got, frame.size() - got,
                        static_cast<off_t>(pos.off + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got != frame.size()) return Status::corruption("wal read: short frame");
  uint32_t len, crc;
  std::memcpy(&len, frame.data(), 4);
  std::memcpy(&crc, frame.data() + 4, 4);
  BytesView payload(frame.data() + 8, frame.size() - 8);
  if (len != payload.size() || crc32c(payload) != crc) {
    return Status::corruption("wal read: frame crc mismatch");
  }
  if (payload_gk(payload) != g << 1) return Status::corruption("wal read: wrong group");
  return Bytes(payload.begin() + 4, payload.end());
}

}  // namespace rspaxos::storage
