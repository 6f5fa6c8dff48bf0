#include "util/fdio.hh"

#include <cerrno>

#include <fcntl.h>
#include <unistd.h>

namespace mcscope {

bool
readWholeFile(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    out.clear();
    char chunk[65536];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            out.append(chunk, static_cast<size_t>(n));
            continue;
        }
        if (n == 0)
            break;
        if (errno == EINTR)
            continue;
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return false;
    }
    ::close(fd);
    return true;
}

bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
}

LineScan
scanLines(int fd, uint64_t from,
          const std::function<void(uint64_t, std::string_view)> &line)
{
    LineScan scan;
    scan.end = from;
    scan.eof = from;
    // Small on purpose: every page of this buffer a scan fills stays
    // in the process's resident set, and store lines are short.
    char chunk[16384];
    std::string carry; // the start of a line that spans chunks
    for (;;) {
        const ssize_t n = ::pread(fd, chunk, sizeof(chunk),
                                  static_cast<off_t>(scan.eof));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            scan.ok = false;
            return scan;
        }
        if (n == 0)
            return scan;
        scan.eof += static_cast<uint64_t>(n);
        const std::string_view data(chunk, static_cast<size_t>(n));
        size_t pos = 0;
        for (size_t nl; (nl = data.find('\n', pos)) != data.npos;
             pos = nl + 1) {
            std::string_view text = data.substr(pos, nl - pos);
            if (!carry.empty()) {
                carry.append(text);
                text = carry;
            }
            line(scan.end, text);
            scan.end += text.size() + 1;
            carry.clear();
        }
        carry.append(data.substr(pos));
    }
}

} // namespace mcscope
