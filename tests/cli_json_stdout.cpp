// Runs a command and passes only if it exits 0 and its stdout is exactly one
// JSON document (parse_json accepts it); the command's stderr passes
// through. The CLI smoke tests of `--json` run through it:
//
//   cli_json_stdout <program> [args...]
//
// On success the captured stdout is echoed, so a test's
// PASS_REGULAR_EXPRESSION can still check what the document says.
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "common/json.hpp"

namespace {

// `arg` single-quoted for /bin/sh.
std::string shell_quote(const std::string& arg) {
  std::string quoted = "'";
  for (const char c : arg) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  return quoted + "'";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: cli_json_stdout <program> [args...]\n");
    return 2;
  }
  std::string command;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) command += ' ';
    command += shell_quote(argv[i]);
  }
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    std::perror("cli_json_stdout: popen");
    return 1;
  }
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "cli_json_stdout: command failed (wait status %d)\n",
                 status);
    return 1;
  }
  const supmr::Status parsed = supmr::parse_json(out).status();
  if (!parsed.ok()) {
    std::fprintf(stderr,
                 "cli_json_stdout: stdout is not one JSON document (%s):\n%s",
                 parsed.message().c_str(), out.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}
