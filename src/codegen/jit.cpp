#include "codegen/jit.h"

#include <dlfcn.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "codegen/cpp_emitter.h"
#include "support/strings.h"

namespace anvil {
namespace codegen {

namespace {

bool
runs(const std::string &cmd)
{
    std::string probe = cmd + " --version > /dev/null 2>&1";
    return std::system(probe.c_str()) == 0;
}

/** `s` as one single-quoted sh word (paths under $TMPDIR may hold
 *  spaces or quotes). */
std::string
shellQuote(const std::string &s)
{
    std::string q = "'";
    for (char ch : s) {
        if (ch == '\'')
            q += "'\\''";
        else
            q += ch;
    }
    return q + "'";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
removeTree(const std::string &dir)
{
    // The dir only ever holds the three files we created.
    for (const char *f : {"kernel.cpp", "kernel.so", "cc.err"})
        ::unlink((dir + "/" + f).c_str());
    ::rmdir(dir.c_str());
}

/** Cache key: design hash + everything that changes the built object
 *  for the same design — the compiler opt level and the emitter's
 *  codegen revision. */
struct CacheKey
{
    uint64_t hash;
    int opt_level;
    int emitter_tag;

    bool operator<(const CacheKey &o) const
    {
        if (hash != o.hash)
            return hash < o.hash;
        if (opt_level != o.opt_level)
            return opt_level < o.opt_level;
        return emitter_tag < o.emitter_tag;
    }
};

std::mutex g_cache_mu;
std::map<CacheKey, std::shared_ptr<CompiledKernel>> g_cache;

} // namespace

CompiledKernel::~CompiledKernel()
{
    if (_dl)
        ::dlclose(_dl);
}

std::string
jitCompilerPath()
{
    if (const char *env = ::getenv("ANVIL_CXX"))
        return env;   // verbatim, even if broken: the fallback hook
    // Each probe spawns a shell; search PATH once per process.
    static const std::string found = [] {
        for (const char *c : {"c++", "g++", "clang++"})
            if (runs(c))
                return std::string(c);
        return std::string();
    }();
    return found;
}

JitResult
jitCompileKernel(const rtl::Netlist &nl, const JitOptions &opts)
{
    JitResult res;
    uint64_t t0 = rtl::monotonicNanos();
    uint64_t hash = rtl::designHash(nl);
    CacheKey key{hash, opts.opt_level, opts.emitter_tag};
    {
        std::lock_guard<std::mutex> lock(g_cache_mu);
        auto it = g_cache.find(key);
        if (it != g_cache.end()) {
            res.kernel = it->second;
            res.cache_hit = true;
            return res;
        }
    }

    std::string cxx = jitCompilerPath();
    if (cxx.empty()) {
        res.error = "no C++ compiler found (tried c++, g++, clang++; "
                    "set ANVIL_CXX to override)";
        return res;
    }

    // Scratch lands under $TMPDIR when set (sandboxes and CI point it
    // at a private writable dir), falling back to /tmp.
    const char *tmp_env = ::getenv("TMPDIR");
    std::string tmp_base =
        tmp_env && *tmp_env ? tmp_env : "/tmp";
    while (tmp_base.size() > 1 && tmp_base.back() == '/')
        tmp_base.pop_back();
    std::string tmpl_s = tmp_base + "/anvil-jit-XXXXXX";
    std::vector<char> tmpl(tmpl_s.begin(), tmpl_s.end());
    tmpl.push_back('\0');
    if (!::mkdtemp(tmpl.data())) {
        res.error = "mkdtemp failed in " + tmp_base;
        return res;
    }
    std::string dir = tmpl.data();
    std::string src = dir + "/kernel.cpp";
    std::string so = dir + "/kernel.so";
    std::string err = dir + "/cc.err";
    {
        std::string unit = emitCppKernel(nl, "jit");
        res.source_bytes = unit.size();
        std::ofstream out(src);
        out << unit;
        if (!out) {
            res.error = "failed to write " + src;
            removeTree(dir);
            return res;
        }
    }

    // Units past 64 KiB compile about 40% faster at -O1 and run no
    // slower: -O2 lost per cycle on axi_mux (97 KB) and tlb_4w64s
    // (377 KB) and tied on both crossbars (215 KB, 1.0 MB).  Smaller
    // units were not measured and keep -O2.  docs/compile.md
    // ("Renames") has the runs.  The cache key keeps the *requested*
    // level, so the policy is transparent to callers.
    int opt = opts.opt_level;
    if (opt > 1 && res.source_bytes > 1u << 16)
        opt = 1;
    // -nostdlib links no crt files, libstdc++ or libgcc: a wide
    // unit's libc references (mem*) bind to this process at dlopen,
    // and a symbol the process cannot supply fails the RTLD_NOW load,
    // hence an interpreter fallback.  Nothing unwinds through a kernel
    // (no exceptions, no callbacks), so it carries no unwind tables,
    // which saves about 5% of the compile.
    std::string cmd = strfmt(
        "%s -std=c++17 -O%d -fPIC -shared -nostdlib -fno-exceptions "
        "-fno-rtti -fno-asynchronous-unwind-tables -g0 -o %s %s 2> %s",
        cxx.c_str(), opt, shellQuote(so).c_str(),
        shellQuote(src).c_str(), shellQuote(err).c_str());
    int status = std::system(cmd.c_str());
    if (status != 0) {
        std::string diag = readFile(err);
        if (diag.size() > 2000)
            diag.resize(2000);
        while (!diag.empty() &&
               (diag.back() == '\n' || diag.back() == '\r'))
            diag.pop_back();
        if (diag.empty())
            diag = WIFEXITED(status)
                ? strfmt("exit status %d", WEXITSTATUS(status))
                : strfmt("wait status %d", status);
        res.error = "kernel compile failed (" + cxx + "): " + diag;
        if (!opts.keep_files)
            removeTree(dir);
        return res;
    }

    void *dl = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!dl) {
        const char *why = ::dlerror();
        res.error = std::string("dlopen failed: ") +
                    (why ? why : "unknown");
        if (!opts.keep_files)
            removeTree(dir);
        return res;
    }
    // The mapping survives the unlink; clean up eagerly so nothing
    // litters /tmp even if the process dies later.
    if (!opts.keep_files)
        removeTree(dir);

    auto entry = reinterpret_cast<AnvilKernelEntryFn>(
        ::dlsym(dl, ANVIL_KERNEL_ENTRY_SYMBOL));
    if (!entry) {
        res.error = "kernel entry symbol missing";
        ::dlclose(dl);
        return res;
    }
    const AnvilKernel *abi = entry();
    if (!abi || abi->abi_version != ANVIL_KERNEL_ABI_VERSION) {
        res.error = "kernel ABI version mismatch";
        ::dlclose(dl);
        return res;
    }
    if (abi->design_hash != hash || !nl.layout()->fits(*abi)) {
        res.error = "kernel does not match the netlist";
        ::dlclose(dl);
        return res;
    }

    res.kernel = std::make_shared<CompiledKernel>(dl, abi);
    res.compile_ns = rtl::monotonicNanos() - t0;
    std::lock_guard<std::mutex> lock(g_cache_mu);
    g_cache.emplace(key, res.kernel);
    return res;
}

rtl::KernelRef
kernelRef(const std::shared_ptr<CompiledKernel> &k)
{
    rtl::KernelRef ref;
    if (k) {
        ref.abi = k->abi();
        ref.hold = k;
    }
    return ref;
}

} // namespace codegen
} // namespace anvil
