// JSON output primitives shared by every JSON writer in the repository
// (the bench reports, heus-lint and the analyzer reports): string
// escaping and the `--json` / `--json=PATH` flag.
#pragma once

#include <string>
#include <string_view>

namespace heus::common {

/// Escape `s` for inclusion inside a JSON string literal (quotes,
/// backslashes, and all control characters below 0x20).
[[nodiscard]] std::string json_escape(std::string_view s);

/// The `--json[=PATH]` flag: one parser so no tool can drift on its
/// spelling. Bare `--json` (or an empty PATH) leaves path() empty; the
/// caller decides what that means — stdout for heus-lint, a default
/// file for the benches.
class JsonSink {
 public:
  /// Consume `arg` if it is `--json` or `--json=PATH`; returns whether
  /// it was consumed.
  bool parse(std::string_view arg);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Destination path; empty for bare `--json`.
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool to_stdout() const {
    return enabled_ && path_.empty();
  }

  /// Emit `json` to path(), or to stdout when path() is empty. No-op
  /// (true) when the sink is not enabled; false on I/O failure.
  bool write(const std::string& json) const;

 private:
  bool enabled_ = false;
  std::string path_;
};

}  // namespace heus::common
