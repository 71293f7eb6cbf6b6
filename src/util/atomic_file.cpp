#include "util/atomic_file.h"

#include <fstream>
#include <system_error>

namespace greenhetero::util {

void write_file_atomic(const std::filesystem::path& path,
                       std::string_view body) {
  write_file_atomic(path, std::span<const std::string_view>(&body, 1));
}

void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::string_view> body) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw AtomicWriteError("cannot open temp file for atomic write: " +
                             tmp.string());
    }
    for (std::string_view piece : body) {
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    }
    out.flush();
    if (!out) {
      throw AtomicWriteError("write to temp file failed: " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw AtomicWriteError("atomic rename failed: " + tmp.string() + " -> " +
                           path.string() + ": " + ec.message());
  }
}

}  // namespace greenhetero::util
