// Whole-file writes that a crash or a full disk cannot tear.
#pragma once

#include <cstddef>
#include <string>

namespace chpo {

/// write() the whole buffer, riding out EINTR and partial writes. False on
/// the first failed write (e.g. ENOSPC).
bool write_all(int fd, const char* data, std::size_t size);

/// Replace `path` with `bytes` through `<path>.tmp` + rename: a reader
/// sees either the old file or the complete new one, never a torn one.
/// `durable` adds an fsync of the file before the rename and of its
/// directory after it. On failure (cannot create, short write, rename)
/// returns false, removes the tmp file and leaves `path` untouched.
bool atomic_write_file(const std::string& path, const std::string& bytes, bool durable);

}  // namespace chpo
