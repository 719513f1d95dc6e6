#include "sampler.h"

#include <dlfcn.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

constexpr size_t kMaxSamples = size_t{1} << 20;
uintptr_t g_pcs[kMaxSamples];
std::atomic<size_t> g_count{0};

void OnSigprof(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
  size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_pcs[i] = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  }
}

void SetTimer(int interval_us) {
  itimerval tv{};
  tv.it_interval.tv_sec = interval_us / 1000000;
  tv.it_interval.tv_usec = interval_us % 1000000;
  tv.it_value = tv.it_interval;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
}

/// Function symbols of the running executable, from its own .symtab (the
/// dynamic symbol table lacks internal-linkage functions such as the
/// coroutine bodies in anonymous namespaces).
class ExeSymbols {
 public:
  ExeSymbols() {
    dl_iterate_phdr(&ExeSymbols::OnObject, this);
    std::ifstream in("/proc/self/exe", std::ios::binary);
    image_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    if (image_.size() < sizeof(Elf64_Ehdr)) return;
    Elf64_Ehdr eh;
    std::memcpy(&eh, image_.data(), sizeof eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64 ||
        eh.e_shoff + uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
            image_.size()) {
      return;
    }
    std::vector<Elf64_Shdr> sections(eh.e_shnum);
    std::memcpy(sections.data(), image_.data() + eh.e_shoff,
                sections.size() * sizeof(Elf64_Shdr));
    for (const Elf64_Shdr& sh : sections) {
      if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) continue;
      const Elf64_Shdr& strtab = sections[sh.sh_link];
      if (sh.sh_offset + sh.sh_size > image_.size() ||
          strtab.sh_offset + strtab.sh_size > image_.size()) {
        continue;
      }
      size_t n = sh.sh_size / sizeof(Elf64_Sym);
      for (size_t i = 0; i < n; ++i) {
        Elf64_Sym sym;
        std::memcpy(&sym, image_.data() + sh.sh_offset + i * sizeof sym,
                    sizeof sym);
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
            sym.st_name >= strtab.sh_size) {
          continue;
        }
        funcs_.push_back({sym.st_value, sym.st_value + sym.st_size,
                          image_.data() + strtab.sh_offset + sym.st_name});
      }
    }
    std::sort(funcs_.begin(), funcs_.end(),
              [](const Func& a, const Func& b) { return a.lo < b.lo; });
  }

  /// True when `pc` lies in one of the executable's loaded segments.
  bool Contains(uintptr_t pc) const {
    for (const auto& [lo, hi] : segments_) {
      if (pc >= lo && pc < hi) return true;
    }
    return false;
  }

  /// Mangled name of the function containing `pc`, or nullptr.
  const char* NameAt(uintptr_t pc) const {
    uintptr_t addr = pc - bias_;
    auto it = std::upper_bound(
        funcs_.begin(), funcs_.end(), addr,
        [](uintptr_t a, const Func& f) { return a < f.lo; });
    if (it == funcs_.begin()) return nullptr;
    --it;
    return addr < it->hi ? it->name : nullptr;
  }

 private:
  struct Func {
    uintptr_t lo;
    uintptr_t hi;
    const char* name;
  };

  static int OnObject(dl_phdr_info* info, size_t, void* self_ptr) {
    auto* self = static_cast<ExeSymbols*>(self_ptr);
    // The first object reported is the executable itself.
    self->bias_ = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
      const ElfW(Phdr)& ph = info->dlpi_phdr[i];
      if (ph.p_type != PT_LOAD) continue;
      uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
      self->segments_.emplace_back(lo, lo + ph.p_memsz);
    }
    return 1;
  }

  std::string image_;
  std::vector<Func> funcs_;
  std::vector<std::pair<uintptr_t, uintptr_t>> segments_;
  uintptr_t bias_ = 0;
};

/// Parses one <source-name> (decimal length, then that many characters).
bool SourceName(const char** s, std::string* out) {
  size_t len = 0;
  const char* p = *s;
  if (*p < '0' || *p > '9') return false;
  while (*p >= '0' && *p <= '9') len = len * 10 + static_cast<size_t>(*p++ - '0');
  if (std::strlen(p) < len) return false;
  out->assign(p, len);
  *s = p + len;
  return true;
}

}  // namespace

std::string ModuleOfSymbol(const char* mangled) {
  static const std::set<std::string, std::less<>> kModules = {
      "sim",  "storage", "txn",  "repl", "cloud", "load", "fault",
      "chaos", "runner", "net",  "obs",  "util",  "sut"};
  const char* s = mangled;
  if (std::strncmp(s, "_Z", 2) != 0) return "other";
  s += 2;
  if (*s == 'Z') ++s;  // local entity: the enclosing function comes first
  if (*s == 'L') ++s;  // internal linkage
  if (*s != 'N') return "other";
  ++s;
  while (*s == 'r' || *s == 'V' || *s == 'K' || *s == 'R' || *s == 'O') ++s;
  std::string ns;
  if (!SourceName(&s, &ns)) return "other";
  if (ns == "perfbench") return "perfbench";
  if (ns != "cloudybench") return "other";
  std::string inner;
  if (SourceName(&s, &inner) && kModules.count(inner) != 0) return inner;
  return "core";
}

CpuSampler::CpuSampler(int interval_us) {
  g_count.store(0, std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_sigaction = &OnSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
  SetTimer(interval_us);
}

CpuSampler::~CpuSampler() {
  if (!stopped_) SetTimer(0);
}

void CpuSampler::BlockOnThisThread() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

void CpuSampler::UnblockOnThisThread() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGPROF);
  pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
}

std::map<std::string, long> CpuSampler::Attribute() {
  SetTimer(0);
  stopped_ = true;
  size_t n = std::min(g_count.load(std::memory_order_relaxed), kMaxSamples);
  ExeSymbols exe;
  std::map<std::string, long> counts;
  for (size_t i = 0; i < n; ++i) {
    uintptr_t pc = g_pcs[i];
    std::string module = "other";
    if (exe.Contains(pc)) {
      const char* name = exe.NameAt(pc);
      if (name != nullptr) module = ModuleOfSymbol(name);
    } else {
      Dl_info info{};
      if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
          info.dli_fname != nullptr &&
          std::strstr(info.dli_fname, "/libc.so") != nullptr) {
        module = "libc";
      }
    }
    ++counts[module];
  }
  return counts;
}

}  // namespace perfbench
