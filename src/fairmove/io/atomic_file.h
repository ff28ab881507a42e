#ifndef FAIRMOVE_IO_ATOMIC_FILE_H_
#define FAIRMOVE_IO_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "fairmove/common/status.h"

namespace fairmove {

/// Durably replaces the file at `path` with `data` using the classic
/// write-to-temp / fsync / rename / fsync-parent-directory sequence. The
/// rename is atomic on POSIX, so at every instant — including across a
/// crash or SIGKILL at any point — readers of `path` observe either the
/// complete previous contents or the complete new contents, never a
/// truncated mix. The temp file lives next to `path` (same filesystem, so
/// rename cannot degrade to copy) and is removed on failure.
Status AtomicWriteFile(const std::string& path, std::string_view data);

/// Reads the whole file into a string. NotFound when the file does not
/// exist, IOError for any other failure.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace fairmove

#endif  // FAIRMOVE_IO_ATOMIC_FILE_H_
