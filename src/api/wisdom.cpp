#include "api/wisdom.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/plan_io.hpp"
#include "util/fault.hpp"

namespace whtlab::api {

namespace {

constexpr char kHeader[] = "# whtlab wisdom v1";
/// Property lines earlier builds wrote; skipped on load.
constexpr char kPropertyTag[] = "@prop";

/// (mtime, size) fingerprint for change detection; (0, 0) = no file.
/// Nanosecond mtime where the platform provides it, so back-to-back
/// rewrites within one second are still noticed.
std::pair<long long, long long> file_fingerprint(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {0, 0};
  long long mtime = static_cast<long long>(st.st_mtime) * 1000000000LL;
#if defined(__linux__)
  mtime += st.st_mtim.tv_nsec;
#endif
  return {mtime, static_cast<long long>(st.st_size)};
}

/// RAII advisory lock on `path`.lock (flock, exclusive).  flock blocks a
/// second acquisition even within one process (locks attach to open file
/// descriptions), so this also serializes threads that bypass the registry
/// mutex — but the registry keeps its own mutex: flock alone would let two
/// threads sharing the registry's in-memory state interleave.  Errors
/// throw: silently proceeding unlocked would reintroduce the lost-update
/// race this exists to close.
///
/// The lock file is reclaimed on release, so `*.lock` never outlives the
/// critical section.  Naive unlink is racy — a holder that unlinks after
/// unlocking can delete a *recreated* file a new holder just locked, after
/// which two processes hold "the" lock on different inodes.  The safe
/// protocol:
///   * Release unlinks WHILE STILL HOLDING the exclusive lock, then
///     unlocks.  Nobody else can be a validated holder at unlink time.
///   * Acquire revalidates after flock returns: if the path no longer
///     names the locked inode (fstat vs stat — the file was reclaimed, and
///     possibly recreated, while we slept in flock), the lock we won is on
///     an orphaned inode; drop it and retry on the fresh path.
class FileLock {
 public:
  explicit FileLock(const std::string& path) : lock_path_(path + ".lock") {
    for (;;) {
      fd_ = ::open(lock_path_.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0666);
      if (fd_ < 0) {
        throw std::runtime_error("wisdom: cannot open lock file " + lock_path_);
      }
      int rc;
      do {
        rc = ::flock(fd_, LOCK_EX);
      } while (rc != 0 && errno == EINTR);
      if (rc != 0) {
        ::close(fd_);
        throw std::runtime_error("wisdom: cannot lock " + lock_path_);
      }
      struct stat held{}, named{};
      if (::fstat(fd_, &held) == 0 && ::stat(lock_path_.c_str(), &named) == 0 &&
          held.st_ino == named.st_ino && held.st_dev == named.st_dev) {
        return;  // we hold the lock on the inode the path names
      }
      // The previous holder reclaimed (and someone may have recreated) the
      // lock file while we waited: our inode is orphaned.  Retry fresh.
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  ~FileLock() {
    ::unlink(lock_path_.c_str());  // before unlock — see class comment
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }

 private:
  std::string lock_path_;
  int fd_ = -1;
};

}  // namespace

Wisdom Wisdom::load(const std::string& path) {
  Wisdom wisdom;
  std::ifstream in(path);
  if (!in) return wisdom;  // no file yet: empty wisdom, not an error

  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind(kPropertyTag, 0) == 0) continue;
    std::istringstream fields(line);
    Key key;
    std::string n_text, grammar;
    if (!std::getline(fields, key.cpu, '\t') ||
        !std::getline(fields, n_text, '\t') ||
        !std::getline(fields, key.strategy, '\t') ||
        !std::getline(fields, key.backend, '\t') ||
        !std::getline(fields, grammar)) {
      throw std::invalid_argument("wisdom: malformed line " +
                                  std::to_string(lineno) + " in " + path);
    }
    try {
      key.n = std::stoi(n_text);
      core::Plan plan = core::parse_plan(grammar);
      if (plan.log2_size() != key.n) {
        throw std::invalid_argument(
            "plan computes WHT(2^" + std::to_string(plan.log2_size()) +
            ") but the entry claims n = " + std::to_string(key.n));
      }
      // Last entry wins, matching insert()'s replace semantics — appending
      // a re-tuned line to a wisdom file supersedes the older one.
      wisdom.entries_[std::move(key)] = std::move(plan);
    } catch (const std::exception& error) {
      throw std::invalid_argument("wisdom: bad entry at line " +
                                  std::to_string(lineno) + " in " + path +
                                  ": " + error.what());
    }
  }
  return wisdom;
}

void Wisdom::save(const std::string& path) const {
  // Write-then-rename: readers (and crash recovery) only ever see either
  // the old complete file or the new complete file, never a prefix.  The
  // temp name carries the pid so concurrent processes saving the same path
  // cannot interleave writes inside one temp file.
  if (util::fault::enabled() && util::fault::point("wisdom.save")) {
    throw std::runtime_error("wisdom: cannot write " + path +
                             " [fault injected]");
  }
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(temp, std::ios::trunc);
    if (!out) throw std::runtime_error("wisdom: cannot write " + temp);
    out << kHeader << "\n";
    for (const auto& [key, plan] : entries_) {
      out << key.cpu << '\t' << key.n << '\t' << key.strategy << '\t'
          << key.backend << '\t' << core::format_plan(plan) << "\n";
    }
    if (!out) throw std::runtime_error("wisdom: write failed for " + temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    throw std::runtime_error("wisdom: cannot rename " + temp + " to " + path);
  }
}

Wisdom Wisdom::save_merged(const std::string& path) const {
  // The whole read-merge-rename is one flock critical section: a concurrent
  // process's save_merged either completes before our load or starts after
  // our rename, so no writer's entries are lost.  Plain save() inside the
  // section keeps the atomic temp-file-and-rename (readers that do not take
  // the lock still never observe a torn file).
  const FileLock lock(path);
  Wisdom merged = Wisdom::load(path);
  merged.merge_from(*this);
  merged.save(path);
  return merged;
}

const core::Plan* Wisdom::lookup(const Key& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void Wisdom::insert(const Key& key, core::Plan plan) {
  entries_[key] = std::move(plan);
}

void Wisdom::merge_from(const Wisdom& other) {
  for (const auto& [key, plan] : other.entries_) entries_[key] = plan;
}

std::vector<Wisdom::Key> Wisdom::keys() const {
  std::vector<Key> out;
  out.reserve(entries_.size());
  for (const auto& [key, plan] : entries_) out.push_back(key);
  return out;
}

// --- process-wide registry --------------------------------------------------

struct WisdomRegistry::Impl {
  std::mutex mutex;
  struct CachedFile {
    Wisdom wisdom;
    std::pair<long long, long long> fingerprint{0, 0};
  };
  std::map<std::string, CachedFile> files;

  /// Under the lock: the cached state for `path`, reloaded if the file on
  /// disk changed since it was last read.
  CachedFile& fresh(const std::string& path) {
    CachedFile& cached = files[path];
    const auto fp = file_fingerprint(path);
    if (fp != cached.fingerprint) {
      cached.wisdom = Wisdom::load(path);
      cached.fingerprint = fp;
    }
    return cached;
  }

  /// Under the registry lock: merge `cached` over the current on-disk state
  /// and persist atomically.  save_merged re-reads the file under an
  /// advisory flock, so a winner flushed between our load and our save is
  /// kept, not clobbered — whether the other writer is a thread in this
  /// process or another process entirely.
  void flush(const std::string& path, CachedFile& cached) {
    cached.wisdom = cached.wisdom.save_merged(path);
    cached.fingerprint = file_fingerprint(path);
  }
};

WisdomRegistry::Impl& WisdomRegistry::impl() {
  static Impl instance;
  return instance;
}

WisdomRegistry& WisdomRegistry::global() {
  static WisdomRegistry registry;
  return registry;
}

std::optional<core::Plan> WisdomRegistry::lookup(const std::string& path,
                                                 const Wisdom::Key& key) {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  const core::Plan* hit = state.fresh(path).wisdom.lookup(key);
  if (hit == nullptr) return std::nullopt;
  return *hit;
}

void WisdomRegistry::insert(const std::string& path, const Wisdom::Key& key,
                            core::Plan plan) {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  Impl::CachedFile& cached = state.fresh(path);
  cached.wisdom.insert(key, std::move(plan));
  state.flush(path, cached);
}

void WisdomRegistry::flush(const std::string& path) {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  const auto it = state.files.find(path);
  if (it == state.files.end()) return;  // never touched: nothing to merge
  try {
    state.flush(path, it->second);
  } catch (const std::exception&) {
    // Best effort by contract: a full disk at drain time must not turn a
    // graceful shutdown into a crash.
  }
}

void WisdomRegistry::invalidate(const std::string& path) {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.files.erase(path);
}

}  // namespace whtlab::api
