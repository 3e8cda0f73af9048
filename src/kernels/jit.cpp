#include "kernels/jit.hpp"

#include <dlfcn.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "kernels/source_printer.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace dfg::kernels::jit {

namespace {

namespace fs = std::filesystem;

fs::path jit_root() {
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) tmp = "/tmp";
  return tmp / "dfgen-jit";
}

fs::path process_dir() {
  return jit_root() / ("p" + std::to_string(static_cast<long>(getpid())));
}

/// Tail of the compiler log, for error messages. Bounded so a pathological
/// compiler cannot balloon the exception text.
std::string log_tail(const fs::path& log_path) {
  std::ifstream in(log_path);
  if (!in) return "(no compiler output captured)";
  std::ostringstream os;
  os << in.rdbuf();
  std::string text = os.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  constexpr std::size_t kMaxTail = 512;
  if (text.size() > kMaxTail) {
    text = "..." + text.substr(text.size() - kMaxTail);
  }
  return text.empty() ? "(empty compiler output)" : text;
}

/// Shell-quotes one word for the sh -c command std::system runs.
std::string quoted(const std::string& word) {
  std::string out = "'";
  for (const char c : word) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

}  // namespace

Module::Module(void* handle, EntryFn entry, std::string object_path)
    : handle_(handle), entry_(entry), object_path_(std::move(object_path)) {}

Module::~Module() {
  if (handle_ != nullptr) dlclose(handle_);
}

void Module::execute(const Program& program,
                     std::span<const BufferBinding> inputs, float* out,
                     std::size_t out_elements, std::size_t begin,
                     std::size_t end) const {
  validate_launch(program, inputs, out_elements, begin, end);
  const std::size_t n = inputs.size();
  const float* stack_bufs[64];
  std::vector<const float*> heap_bufs;
  const float** bufs = stack_bufs;
  if (n > std::size(stack_bufs)) {
    heap_bufs.resize(n);
    bufs = heap_bufs.data();
  }
  for (std::size_t i = 0; i < n; ++i) bufs[i] = inputs[i].data;
  entry_(bufs, out, begin, end);
}

std::string compiler_command() {
  return support::env::get_string("DFGEN_JIT_CC", "cc");
}

std::shared_ptr<const Module> compile(const Program& program,
                                      const std::string& cc) {
  // Monotonic per-process counter keeps artifact names unique even when
  // the same fingerprint is recompiled (cache cleared, compiler changed).
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t serial = counter.fetch_add(1);

  const fs::path dir = process_dir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw KernelError("jit: cannot create artifact directory " +
                      dir.string() + ": " + ec.message());
  }

  char base[64];
  std::snprintf(base, sizeof(base), "k%llu_%016llx",
                static_cast<unsigned long long>(serial),
                static_cast<unsigned long long>(program.fingerprint()));
  const fs::path c_path = dir / (std::string(base) + ".c");
  const fs::path so_path = dir / (std::string(base) + ".so");
  const fs::path tmp_path = dir / (std::string(base) + ".so.tmp");
  const fs::path log_path = dir / (std::string(base) + ".log");

  {
    std::ofstream src(c_path);
    src << to_c_source(program);
    if (!src) {
      throw KernelError("jit: cannot write " + c_path.string());
    }
  }

  // -ffp-contract=off: the generated statements mirror the interpreters
  // one operation at a time; fusing any of them into an fma would change
  // rounding and break the bit-exactness contract. -fno-math-errno matches
  // how the interpreters' libm calls are compiled.
  const std::string command =
      cc +
      // -march=native is the jit's structural advantage over the
      // ahead-of-time-built VM: the kernel compiles on the machine that
      // runs it, so the widest vector ISA the host has is always safe to
      // use. Bit-exactness holds at any vector width: +,-,*,/ and sqrt
      // are IEEE-exact lane-wise, and -ffp-contract=off keeps the FMA
      // units from fusing rounding steps away.
      " -O3 -march=native -fPIC -shared -fno-math-errno -ffp-contract=off"
      " -o " +
      quoted(tmp_path.string()) + " " + quoted(c_path.string()) + " -lm > " +
      quoted(log_path.string()) + " 2>&1";
  const int status = std::system(command.c_str());
  if (status != 0) {
    fs::remove(tmp_path, ec);
    throw KernelError("jit: compiler failed (status " +
                      std::to_string(status) + ") for kernel '" +
                      program.name() + "' via `" + cc +
                      "`: " + log_tail(log_path));
  }
  fs::rename(tmp_path, so_path, ec);
  if (ec) {
    throw KernelError("jit: cannot move compiled object into place: " +
                      ec.message());
  }

  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    throw KernelError("jit: dlopen failed for " + so_path.string() + ": " +
                      (err != nullptr ? err : "unknown error"));
  }
  dlerror();  // clear stale state before dlsym
  void* sym = dlsym(handle, kJitEntryName);
  if (sym == nullptr) {
    const char* err = dlerror();
    const std::string detail = err != nullptr ? err : "symbol not found";
    dlclose(handle);
    throw KernelError("jit: dlsym(" + std::string(kJitEntryName) +
                      ") failed: " + detail);
  }
  return std::make_shared<const Module>(
      handle, reinterpret_cast<Module::EntryFn>(sym), so_path.string());
}

std::size_t reap_stale_artifacts() {
  std::size_t removed = 0;
  std::error_code ec;

  // Sibling directories of dead processes.
  for (const fs::directory_entry& entry :
       fs::directory_iterator(jit_root(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 2 || name[0] != 'p') continue;
    char* endp = nullptr;
    const long pid = std::strtol(name.c_str() + 1, &endp, 10);
    if (pid <= 0 || endp == nullptr || *endp != '\0') continue;
    if (pid == static_cast<long>(getpid())) continue;
    if (kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH) {
      std::error_code rm_ec;
      removed += fs::remove_all(entry.path(), rm_ec);
    }
  }
  if (ec) return removed;  // root does not exist yet: nothing to reap

  // Stray temp objects in our own directory (a crashed earlier incarnation
  // of this pid number, or an aborted compile of our own).
  std::error_code own_ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(process_dir(), own_ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code rm_ec;
      if (fs::remove(entry.path(), rm_ec)) ++removed;
    }
  }
  return removed;
}

}  // namespace dfg::kernels::jit
