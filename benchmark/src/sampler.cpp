#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>
#include <unwind.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

namespace glrbench {
namespace {

constexpr int kMaxFrames = 64;

int layerIndex(std::string_view name) {
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    if (name == kLayers[i]) return static_cast<int>(i);
  }
  return kNoLayer;
}

const int kDelaunay = layerIndex("geometry.delaunay");
const int kIndex = layerIndex("geometry.index");

/// Source file basename -> src/ module directory, generated at configure
/// time from the checkout's src/*/*.cpp.
constexpr std::pair<const char*, const char*> kSourceModules[] = {
#include "source_modules.inc"
};

/// Layer of the translation unit compiled from `file`, or kNoLayer for
/// sources outside src/ (the benchmark, the C runtime).
int fileLayer(std::string_view file) {
  for (const auto& [source, module] : kSourceModules) {
    if (file != source) continue;
    const std::string_view dir = module;
    if (dir == "geometry") {
      return file == "spatial_grid.cpp" || file == "tiled_grid.cpp" ? kIndex
                                                                    : kDelaunay;
    }
    return layerIndex(dir);
  }
  return kNoLayer;
}

/// Reads one <source-name> (length-prefixed identifier) of an Itanium
/// mangled name at `i`, skipping the internal-linkage marker 'L'. Returns
/// an empty view when the next token is not a source name.
std::string_view sourceName(std::string_view m, std::size_t& i) {
  if (i < m.size() && m[i] == 'L') ++i;
  std::size_t len = 0;
  std::size_t j = i;
  while (j < m.size() && m[j] >= '0' && m[j] <= '9') {
    len = len * 10 + static_cast<std::size_t>(m[j] - '0');
    ++j;
  }
  if (j == i || len > m.size() - j) return {};
  i = j + len;
  return m.substr(j, len);
}

/// Layer of a function from the glr namespace its mangled name is declared
/// in (for a local entity such as a lambda, the enclosing function's), or
/// kNoLayer outside glr.
int namespaceLayer(std::string_view m) {
  if (!m.starts_with("_Z")) return kNoLayer;
  std::size_t i = 2;
  while (i < m.size() && m[i] == 'Z') ++i;
  if (i >= m.size() || m[i] != 'N') return kNoLayer;
  ++i;
  while (i < m.size() && (m[i] == 'r' || m[i] == 'V' || m[i] == 'K')) ++i;
  if (i < m.size() && (m[i] == 'R' || m[i] == 'O')) ++i;
  if (sourceName(m, i) != "glr") return kNoLayer;
  const std::string_view ns = sourceName(m, i);
  if (ns == "geom") {
    std::string_view next = sourceName(m, i);
    if (next == "_GLOBAL__N_1") next = sourceName(m, i);
    return next == "SpatialGrid" || next == "TiledSpatialGrid" ? kIndex
                                                               : kDelaunay;
  }
  if (ns == "ckpt") return layerIndex("checkpoint");
  return layerIndex(ns);
}

/// InplaceFunction's invoke/relocate/destroy thunks are lambdas in the
/// kernel's header, instantiated per callback type but mangled without it.
bool isCallbackThunk(std::string_view m) {
  return m.find("3glr3sim15InplaceFunction") != std::string_view::npos &&
         m.find("Ul") != std::string_view::npos;
}

std::vector<char> readFile(const char* path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{std::string{"cannot open "} + path};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

template <class T>
T readAt(const std::vector<char>& file, std::uint64_t offset) {
  if (offset > file.size() || file.size() - offset < sizeof(T)) {
    throw std::runtime_error{"/proc/self/exe: truncated ELF structure"};
  }
  T value;
  std::memcpy(&value, file.data() + offset, sizeof(T));
  return value;
}

std::uintptr_t mainProgramBias() {
  std::uintptr_t bias = 0;
  // The first object dl_iterate_phdr reports is the main program.
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
        return 1;
      },
      &bias);
  return bias;
}

/// State of one unwind inside the signal handler.
struct FrameWalk {
  const SymbolMap* map = nullptr;
  std::uintptr_t pc = 0;  // interrupted program counter
  bool reachedPc = false;
  int frames = 0;
  const SymbolMap::Function* hit = nullptr;
};

/// Unwinds until the first frame that belongs to a layer, so a sample in
/// simulator code costs a few frames rather than the whole stack.
_Unwind_Reason_Code visitFrame(_Unwind_Context* ctx, void* arg) {
  auto* walk = static_cast<FrameWalk*>(arg);
  if (++walk->frames > kMaxFrames) return _URC_END_OF_STACK;
  int exact = 0;
  const std::uintptr_t ip = _Unwind_GetIPInfo(ctx, &exact);
  // The stack starts in this handler and the signal trampoline; the
  // interrupted PC follows verbatim.
  const bool interrupted = !walk->reachedPc && ip == walk->pc;
  if (!walk->reachedPc && !interrupted) return _URC_NO_REASON;
  walk->reachedPc = true;
  // A return address points after its call; step back into the call.
  const SymbolMap::Function* fn =
      walk->map->find(interrupted || exact != 0 ? ip : ip - 1);
  if (fn != nullptr && fn->layer != kNoLayer) {
    walk->hit = fn;
    return _URC_END_OF_STACK;
  }
  return _URC_NO_REASON;
}

std::atomic<Sampler*> gActive{nullptr};

void onProf(int, siginfo_t*, void* ucontext) {
  Sampler* s = gActive.load(std::memory_order_acquire);
  if (s != nullptr) s->onSignal(ucontext);
}

}  // namespace

SymbolMap SymbolMap::loadSelf() {
  const std::vector<char> exe = readFile("/proc/self/exe");
  const auto eh = readAt<Elf64_Ehdr>(exe, 0);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shentsize != sizeof(Elf64_Shdr)) {
    throw std::runtime_error{"/proc/self/exe: not a 64-bit ELF executable"};
  }
  auto section = [&](std::uint64_t index) {
    if (index >= eh.e_shnum) {
      throw std::runtime_error{"/proc/self/exe: bad section index"};
    }
    return readAt<Elf64_Shdr>(exe, eh.e_shoff + index * sizeof(Elf64_Shdr));
  };
  Elf64_Shdr symtab{};
  bool found = false;
  for (std::uint64_t s = 0; s < eh.e_shnum && !found; ++s) {
    symtab = section(s);
    found = symtab.sh_type == SHT_SYMTAB;
  }
  if (!found) {
    throw std::runtime_error{
        "/proc/self/exe has no .symtab (stripped binary): the sampler cannot "
        "attribute samples to layers"};
  }
  const Elf64_Shdr strtab = section(symtab.sh_link);
  if (strtab.sh_offset > exe.size() ||
      exe.size() - strtab.sh_offset < strtab.sh_size) {
    throw std::runtime_error{"/proc/self/exe: truncated string table"};
  }
  const std::string_view names{exe.data() + strtab.sh_offset, strtab.sh_size};
  const std::uintptr_t bias = mainProgramBias();

  SymbolMap map;
  int fileLayerNow = kNoLayer;  // layer of the current local-symbol block
  const std::uint64_t count = symtab.sh_size / sizeof(Elf64_Sym);
  for (std::uint64_t k = 0; k < count; ++k) {
    const auto sym =
        readAt<Elf64_Sym>(exe, symtab.sh_offset + k * sizeof(Elf64_Sym));
    if (sym.st_name >= names.size()) {
      throw std::runtime_error{"/proc/self/exe: bad symbol name offset"};
    }
    const std::string_view rest = names.substr(sym.st_name);
    const std::string_view name = rest.substr(0, rest.find('\0'));
    const unsigned type = ELF64_ST_TYPE(sym.st_info);
    const bool local = ELF64_ST_BIND(sym.st_info) == STB_LOCAL;
    // Local symbols come grouped per object file, each group opened by an
    // STT_FILE entry naming the source; globals follow with no file.
    if (type == STT_FILE) {
      fileLayerNow = fileLayer(name);
      continue;
    }
    if (type != STT_FUNC || sym.st_shndx == SHN_UNDEF || sym.st_size == 0) {
      continue;
    }
    int layer = namespaceLayer(name);
    if ((layer == kNoLayer || isCallbackThunk(name)) && local) {
      layer = fileLayerNow;
    }
    const std::uintptr_t begin = bias + sym.st_value;
    map.fns_.push_back({begin, begin + sym.st_size, layer, std::string{name}});
  }
  if (map.fns_.empty()) {
    throw std::runtime_error{"/proc/self/exe: .symtab lists no functions"};
  }
  // Aliases (C1/C2 constructors, ICF) share an address: keep one, preferring
  // a layered name.
  std::sort(map.fns_.begin(), map.fns_.end(),
            [](const Function& a, const Function& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.layer > b.layer;
            });
  map.fns_.erase(std::unique(map.fns_.begin(), map.fns_.end(),
                             [](const Function& a, const Function& b) {
                               return a.begin == b.begin;
                             }),
                 map.fns_.end());
  return map;
}

const SymbolMap::Function* SymbolMap::find(std::uintptr_t pc) const {
  auto it = std::upper_bound(
      fns_.begin(), fns_.end(), pc,
      [](std::uintptr_t v, const Function& f) { return v < f.begin; });
  if (it == fns_.begin()) return nullptr;
  --it;
  return pc < it->end ? &*it : nullptr;
}

std::size_t SymbolMap::layeredCount() const {
  return static_cast<std::size_t>(
      std::count_if(fns_.begin(), fns_.end(),
                    [](const Function& f) { return f.layer != kNoLayer; }));
}

Sampler::Sampler(const SymbolMap& map)
    : map_(map),
      functions_(std::make_unique<std::atomic<std::uint32_t>[]>(map.size())) {}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  if (armed_) return;
  Sampler* expected = nullptr;
  if (!gActive.compare_exchange_strong(expected, this)) {
    throw std::logic_error{"another sampler is already armed"};
  }
  // The unwinder sets up its caches on first use; doing that here keeps the
  // handler from ever allocating.
  FrameWalk prime;
  prime.map = &map_;
  _Unwind_Backtrace(visitFrame, &prime);

  struct sigaction sa {};
  sa.sa_sigaction = onProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = static_cast<pid_t>(::syscall(SYS_gettid));
  itimerspec its{};
  const long periodNs = 1000000000L / kSampleHz;
  its.it_interval.tv_sec = periodNs / 1000000000L;
  its.it_interval.tv_nsec = periodNs % 1000000000L;
  its.it_value = its.it_interval;
  if (sigaction(SIGPROF, &sa, nullptr) != 0 ||
      timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
    const int err = errno;
    gActive.store(nullptr);
    throw std::system_error{err, std::generic_category(), "sampler timer"};
  }
  if (timer_settime(timer_, 0, &its, nullptr) != 0) {
    const int err = errno;
    timer_delete(timer_);
    gActive.store(nullptr);
    throw std::system_error{err, std::generic_category(), "sampler timer"};
  }
  armed_ = true;
}

void Sampler::stop() {
  if (!armed_) return;
  timer_delete(timer_);
  armed_ = false;
  // The handler stays installed: a SIGPROF still pending finds no sampler
  // and returns instead of taking the default (terminating) action.
  gActive.store(nullptr, std::memory_order_release);
}

std::uint64_t Sampler::samples() const {
  std::uint64_t n = 0;
  for (const auto& c : layers_) n += c.load(std::memory_order_relaxed);
  return n;
}

void Sampler::charge(int layer, const SymbolMap::Function* fn) {
  layers_[static_cast<std::size_t>(layer)].fetch_add(
      1, std::memory_order_relaxed);
  if (fn != nullptr) {
    functions_[map_.indexOf(fn)].fetch_add(1, std::memory_order_relaxed);
  }
}

void Sampler::onSignal(void* ucontext) {
  const int savedErrno = errno;
  FrameWalk walk;
  walk.map = &map_;
  walk.pc = static_cast<std::uintptr_t>(
      static_cast<const ucontext_t*>(ucontext)->uc_mcontext.gregs[REG_RIP]);
  _Unwind_Backtrace(visitFrame, &walk);
  if (!walk.reachedPc) {
    unwindMisses_.fetch_add(1, std::memory_order_relaxed);
    walk.hit = map_.find(walk.pc);
    if (walk.hit != nullptr && walk.hit->layer == kNoLayer) walk.hit = nullptr;
  }
  charge(walk.hit != nullptr ? walk.hit->layer : kRuntimeLayer, walk.hit);
  errno = savedErrno;
}

std::string demangle(const std::string& mangled) {
  int status = 0;
  std::unique_ptr<char, void (*)(void*)> out{
      abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status),
      std::free};
  return status == 0 && out != nullptr ? std::string{out.get()} : mangled;
}

}  // namespace glrbench
