#include "durability/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dpbr {
namespace durability {
namespace {

std::string Errno(const std::string& op, const std::string& path) {
  return op + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
    // A missing parent is routine (experiment sweeps nest per-seed
    // subdirectories under a base the user names); build it and retry.
    if (errno == ENOENT) {
      size_t slash = path.find_last_of('/');
      if (slash == std::string::npos || slash == 0) {
        return Status::Internal(Errno("mkdir", path));
      }
      DPBR_RETURN_NOT_OK(EnsureDir(path.substr(0, slash)));
      if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
        return Status::Internal(Errno("mkdir", path));
      }
    } else {
      return Status::Internal(Errno("mkdir", path));
    }
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::Internal(Errno("stat", path));
  }
  if (!S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("'" + path +
                                   "' exists and is not a directory");
  }
  return Status::OK();
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::Internal(Errno("open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = Status::Internal(Errno("fstat", path));
    ::close(fd);
    return status;
  }
  // One spare byte lets the read that sees EOF land without growing the
  // buffer; a file that grew since the fstat still reads completely.
  std::string out(static_cast<size_t>(st.st_size) + 1, '\0');
  size_t got = 0;
  for (;;) {
    if (got == out.size()) out.resize(2 * out.size());
    ssize_t r = ::read(fd, &out[got], out.size() - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      Status status = Status::Internal(Errno("read", path));
      ::close(fd);
      return status;
    }
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

Status FileSink::Write(const void* data, size_t n) {
  DPBR_RETURN_NOT_OK(WriteAt(data, n, end_));
  end_ += n;
  return Status::OK();
}

Status FileSink::WriteAt(const void* data, size_t n, uint64_t offset) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = ::pwrite(fd_, p, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path_));
    }
    p += w;
    n -= static_cast<size_t>(w);
    offset += static_cast<uint64_t>(w);
  }
  return Status::OK();
}

Status FileSink::WriteV(const ByteSpan* pieces, size_t count) {
  constexpr size_t kMaxIov = 256;  // well under every IOV_MAX
  struct iovec iov[kMaxIov];
  size_t done = 0;  // bytes of pieces[0] already written
  while (count > 0) {
    size_t m = 0;
    for (; m < count && m < kMaxIov; ++m) {
      const size_t skip = m == 0 ? done : 0;
      iov[m].iov_base = const_cast<char*>(pieces[m].data + skip);
      iov[m].iov_len = pieces[m].size - skip;
    }
    ssize_t w = ::pwritev(fd_, iov, static_cast<int>(m),
                          static_cast<off_t>(end_));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path_));
    }
    end_ += static_cast<uint64_t>(w);
    size_t left = static_cast<size_t>(w);
    while (count > 0 && left >= pieces->size - done) {
      left -= pieces->size - done;
      done = 0;
      ++pieces;
      --count;
    }
    if (w == 0 && count > 0) {
      return Status::Internal("write '" + path_ + "': no progress");
    }
    done += left;
  }
  return Status::OK();
}

void FileSink::StartWriteback(uint64_t offset, uint64_t n) {
#ifdef __linux__
  (void)::sync_file_range(fd_, static_cast<off64_t>(offset),
                          static_cast<off64_t>(n), SYNC_FILE_RANGE_WRITE);
#else
  (void)offset;
  (void)n;
#endif
}

Status StreamFileAtomic(const std::string& path,
                        const std::function<Status(FileSink*)>& fill) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return Status::Internal(Errno("open", tmp));
  FileSink sink(fd, tmp);
  Status st = fill(&sink);
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::Internal(Errno("fsync", tmp));
  }
  if (::close(fd) != 0 && st.ok()) {
    st = Status::Internal(Errno("close", tmp));
  }
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::Internal(Errno("rename", tmp));
  }
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  // Persist the rename itself; without this a crash can forget the new
  // name even though the data blocks are on disk.
  size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? "."
                                            : path.substr(0, slash));
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  return StreamFileAtomic(path, [&](FileSink* file) {
    return file->Write(contents.data(), contents.size());
  });
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(Errno("unlink", path));
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such directory: " + dir);
    return Status::Internal(Errno("opendir", dir));
  }
  std::vector<std::string> names;
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(Errno("open", dir));
  Status st;
  if (::fsync(fd) != 0) st = Status::Internal(Errno("fsync", dir));
  ::close(fd);
  return st;
}

}  // namespace durability
}  // namespace dpbr
