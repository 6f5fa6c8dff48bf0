/**
 * @file
 * Raw-fd file helpers with O_CLOEXEC hygiene.
 *
 * std::ifstream / std::ofstream give no way to set O_CLOEXEC on the
 * descriptors they open, so any stream held open while another thread
 * forks a worker (the sharded-sweep supervisor does exactly that)
 * leaks the descriptor into the child across exec.  These helpers
 * cover what the journal and the result store need -- whole-file
 * read, whole-buffer write, and a line scanner over an append-only
 * file -- on descriptors the callers open with O_CLOEXEC, so there is
 * no fcntl(FD_CLOEXEC) window for a concurrent fork to exploit.
 *
 * The line scanner is the one reader of the JSON-lines files both
 * keep (DESIGN.md §9, §10): it reports only complete,
 * newline-terminated lines, with their byte offsets, and leaves a
 * torn tail (a writer killed mid-line) for the caller to count or
 * repair.
 */

#ifndef MCSCOPE_UTIL_FDIO_HH
#define MCSCOPE_UTIL_FDIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace mcscope {

/**
 * Read the entire file at `path` into `out` (replacing its contents).
 *
 * @return true on success; false if the file cannot be opened or a
 *         read fails (errno describes the failure, `out` is
 *         unspecified).
 */
bool readWholeFile(const std::string &path, std::string &out);

/**
 * write(2) all of `data` to `fd`, retrying on EINTR and short writes.
 *
 * @return true on success; false on the first error (errno
 *         describes it).
 */
bool writeAll(int fd, std::string_view data);

/** Where a scanLines() pass stopped. */
struct LineScan
{
    /** Offset just past the last complete line. */
    uint64_t end = 0;
    /** End of file as read; > end when the file ends in a torn line. */
    uint64_t eof = 0;
    /** False when a read failed (errno describes it). */
    bool ok = true;
};

/**
 * Call `line(offset, text)` for every complete line of the file open
 * on `fd`, starting at byte `from` (which must be a line start).
 * `text` excludes the '\n' and is valid only during the call.  Reads
 * with pread(2), so the descriptor's file offset is untouched and
 * several threads may scan one descriptor.
 */
LineScan scanLines(
    int fd, uint64_t from,
    const std::function<void(uint64_t, std::string_view)> &line);

} // namespace mcscope

#endif // MCSCOPE_UTIL_FDIO_HH
