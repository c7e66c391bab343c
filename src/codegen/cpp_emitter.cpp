#include "codegen/cpp_emitter.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "rtl/kernel_abi.h"
#include "rtl/kernel_host.h"
#include "support/strings.h"

namespace anvil {
namespace codegen {

namespace {

using rtl::KernelLayout;
using rtl::Netlist;

/** rtl/word_ops.h as text, the tokens rtl::KernelHost compiles: its
 *  narrow lane, which every unit carries, then its wide lane. */
const char *const kWordOps[] = {
#define ANVIL_WORD_OPS(...) #__VA_ARGS__,
#include "rtl/word_ops.h"
#undef ANVIL_WORD_OPS
};
static_assert(std::size(kWordOps) == 2);

std::string
hexU64(uint64_t v)
{
    return strfmt("0x%llxull", static_cast<unsigned long long>(v));
}

/** An opcode's enumerator, as the unit spells it: a narrow one, or the
 *  base of a wide one. */
const char *
opName(int op)
{
    static const char *const kBase[] = {
        "XCopy", "XNot", "XRedOr", "XRedAnd", "XAnd",   "XOr",  "XXor",
        "XAdd",  "XSub", "XMul",   "XEq",     "XNe",    "XLt",  "XLe",
        "XShl",  "XShr", "XMux",   "XSlice",  "XCat",   "XRom"};
    static const char *const kImm[] = {"XNop", "XZero", "XShrImm",
                                       "XShlImm"};
    static_assert(std::size(kBase) == rtl::kWide &&
                  std::size(kImm) == rtl::kOpCount - rtl::XNop);
    return op >= rtl::XNop ? kImm[op - rtl::XNop] : kBase[op % rtl::kWide];
}

/** The change hook: list the node.  The host queues the consumers
 *  of a body's changes once it returns (kernel_abi.h).  Deliberately
 *  NOT inlined: the hook appears in every node body, and keeping the
 *  bodies at compare + store + call is what keeps the level functions
 *  resident in the i-cache on multi-MB designs — the call costs a
 *  couple of ns and only on an actual change. */
const char *kChangeHook = R"(
static __attribute__((noinline)) void onChange(AnvilFrame *f, int32_t id)
{
    f->out[f->nout++] = id;
}
)";

class CppEmitter
{
  public:
    CppEmitter(const Netlist &nl, const std::string &design_name)
        : _nl(nl), _L(*nl.layout()), _name(design_name),
          _const_at(_L.state_words, -1)
    {
        for (size_t i = 0; i < _L.net_count; i++)
            if (nl.nets()[i].kind == rtl::Net::Kind::Const)
                _const_at[_L.off[i]] = static_cast<int32_t>(i);
    }

    std::string run();

  private:
    std::string word(uint32_t off) const;
    void emitNode(std::ostringstream &os, const KernelLayout::Node &n);
    void emitLevelFns(std::ostringstream &os);
    void emitTables(std::ostringstream &os) const;

    const Netlist &_nl;
    const KernelLayout &_L;
    std::string _name;
    std::vector<int32_t> _const_at;   // per state word: its Const, or -1
    /** Side-table entries the printed records read: a prefix of each
     *  table, since the strict records are lowered first. */
    uint32_t _parts = 0, _rom = 0;
    uint64_t _wide = 0;
};

/** A narrow operand's word: a Const's value, else its state word. */
std::string
CppEmitter::word(uint32_t off) const
{
    int32_t c = _const_at[off];
    return c >= 0
        ? hexU64(_nl.initValues()[static_cast<size_t>(c)].toUint64())
        : strfmt("s[%u]", off);
}

/* Each record becomes a call to its step in rtl/word_ops.h with the
 * record's fields as literals, and a compare-and-store that lists a
 * change. */
void
CppEmitter::emitNode(std::ostringstream &os, const KernelLayout::Node &n)
{
    const std::string &nm = _nl.nameOf(n.net);
    int width = _L.width[static_cast<size_t>(n.net)];
    os << "    // n" << n.net << " w" << width << (nm.empty() ? "" : " ")
       << nm << "\n";
    int op = n.op;
    bool wide = op >= rtl::kWide && op < rtl::XNop;
    int base = wide ? op - rtl::kWide : op;
    if (base == rtl::XCat)
        _parts = std::max(_parts, n.c);
    if (base == rtl::XRom)
        _rom = std::max(_rom, n.b + n.c * rtl::kernelWords(width));
    if (op == rtl::XNop)
        return;   // zero width: always zero, counted only
    std::string step;
    if (wide) {
        _wide = std::max(_wide, n.k + 1);
        uint32_t dw = rtl::kernelWords(width);
        unsigned long long k = n.k;
        if (base == rtl::XCat)
            step = strfmt(
                "wideCat(t, s, kParts + %u, kParts + %u, kWideShape[%llu])",
                n.b, n.c, k);
        else if (base == rtl::XRom)
            step = strfmt("wideRom(t, s + %u, kRom + %u, %u, kWideShape[%llu])",
                          n.a, n.b, n.c, k);
        else
            step = strfmt("wideOp<%s>(t, s, %u, %u, %u, kWideShape[%llu])",
                          opName(op), n.a, n.b, n.c, k);
        os << "    { uint64_t t[" << dw << "]; " << step
           << "; if (putWords(s + " << n.dst << ", t, " << dw
           << ")) onChange(f, " << n.net << "); }\n";
        return;
    }
    if (op == rtl::XCat) {
        step = strfmt("narrowCat(s, kParts + %u, kParts + %u, %s)", n.b, n.c,
                      hexU64(n.k).c_str());
    } else if (op == rtl::XRom) {
        step = strfmt("narrowRom(%s, kRom + %u, %u)", word(n.a).c_str(), n.b,
                      n.c);
    } else {
        uint32_t st = rtl::stateArgs(op);
        auto arg = [&](int i, uint32_t v) {
            return st >> i & 1 ? word(v) : std::to_string(v);
        };
        step = strfmt("narrowOp<%s>(%s, %s, %s, %s)", opName(op),
                      arg(0, n.a).c_str(), arg(1, n.b).c_str(),
                      arg(2, n.c).c_str(), hexU64(n.k).c_str());
    }
    // The store is spelled out rather than a putWord call: one inlined
    // call fewer per node took about 9% off an -O1 compile of a unit
    // of narrow records (axi_mux).
    os << "    { uint64_t r = " << step << "; if (s[" << n.dst
       << "] != r) { s[" << n.dst << "] = r; onChange(f, " << n.net
       << "); } }\n";
}

void
CppEmitter::emitLevelFns(std::ostringstream &os)
{
    // One straight-line body per non-empty level, over every record of
    // the level in slot order, with no queue reads: value comparison
    // alone decides the changed list.  The host runs it for whole
    // dense frames and for a level that escalates inside a sparse
    // frame, and drains the other sparse visits itself, so each node
    // is compiled exactly once.
    uint32_t first = 0;
    for (size_t l = 0; l < _L.levels(); first += _L.level_size[l++]) {
        if (_L.level_size[l] == 0)
            continue;
        os << "\nstatic uint64_t lvl_d_" << l << "(AnvilFrame *f)\n{\n"
           << "    uint64_t *s = f->s;\n";
        for (uint32_t k = 0; k < _L.level_size[l]; k++)
            emitNode(os, _L.nodes[first + k]);
        os << "    return " << _L.level_size[l] << ";\n"
           << "}\n";
    }
}

/* The parts, ROM words and wide shapes the records read, as the
 * layout holds them. */
void
CppEmitter::emitTables(std::ostringstream &os) const
{
    if (_parts) {
        os << "static const XPart kParts[" << _parts << "] = {";
        for (uint32_t i = 0; i < _parts; i++) {
            const rtl::XPart &p = _L.parts[i];
            os << (i % 4 ? " " : "\n    ") << "{" << p.off << ", " << p.bits
               << ", " << p.shift << "},";
        }
        os << "\n};\n";
    }
    if (_rom) {
        os << "static const uint64_t kRom[" << _rom << "] = {";
        for (uint32_t i = 0; i < _rom; i++)
            os << (i % 8 ? " " : "\n    ") << hexU64(_L.rom[i]) << ",";
        os << "\n};\n";
    }
    if (_wide) {
        os << "static const XWide kWideShape[" << _wide << "] = {";
        for (uint64_t i = 0; i < _wide; i++) {
            const rtl::XWide &x = _L.wide[i];
            os << (i % 4 ? " " : "\n    ") << "{" << x.bits << ", "
               << x.abits << ", " << x.bbits << ", " << x.cbits << ", "
               << x.lo << "},";
        }
        os << "\n};\n";
    }
}

std::string
CppEmitter::run()
{
    // The lanes and side tables are rendered after the level
    // functions, which register what their records read.
    std::ostringstream body;
    emitLevelFns(body);

    std::ostringstream os;
    os << "// Generated by anvilc --emit-cpp; design '" << _name
       << "'.\n"
       << "// The dense level bodies of an AnvilKernel (see "
          "src/rtl/kernel_abi.h and\n"
       << "// docs/compile.md), run by the host's rtl::KernelHost; each "
          "node calls\n"
       << "// the step of its record in src/rtl/word_ops.h, embedded "
          "below.\n"
       << "// compile with: c++ -O2 -fPIC -shared -nostdlib -o "
          "kernel.so <this file>\n"
       << "// No headers and no runtime library.\n"
       << "typedef __INT32_TYPE__ int32_t;\n"
       << "typedef __INT64_TYPE__ int64_t;\n"
       << "typedef __UINT32_TYPE__ uint32_t;\n"
       << "typedef __UINT64_TYPE__ uint64_t;\n\n"
       << "extern \"C\" {\n"
       << "typedef struct AnvilFrame {\n"
       << "    uint64_t *s;\n"
       << "    int32_t *out;\n"
       << "    uint64_t nout;\n"
       << "} AnvilFrame;\n"
       << "typedef uint64_t (*AnvilLevelFn)(AnvilFrame *f);\n"
       << "typedef struct AnvilKernel {\n"
       << "    uint32_t abi_version;\n"
       << "    uint32_t net_count;\n"
       << "    uint64_t design_hash;\n"
       << "    uint64_t state_words;\n"
       << "    uint32_t level_count;\n"
       << "    const AnvilLevelFn *dense;\n"
       << "} AnvilKernel;\n"
       << "const AnvilKernel *anvil_kernel(void);\n"
       << "}\n\n"
       << "namespace {\n\n";

    os << "// src/rtl/word_ops.h, narrow lane\n" << kWordOps[0] << "\n";
    if (_wide)
        os << "// src/rtl/word_ops.h, wide lane\n" << kWordOps[1] << "\n";
    emitTables(os);
    os << kChangeHook << body.str() << "\n";

    size_t levels = _L.levels();
    if (levels) {
        os << "static const AnvilLevelFn kDense[" << levels << "] = {";
        for (size_t l = 0; l < levels; l++)
            os << (l % 4 == 0 ? "\n    " : " ")
               << (_L.level_size[l] ? "lvl_d_" + std::to_string(l) : "0")
               << ",";
        os << "\n};\n";
    }
    os << "\nstatic const AnvilKernel kKernel = {\n"
       << "    " << ANVIL_KERNEL_ABI_VERSION << "u, " << _L.net_count
       << "u, " << hexU64(rtl::designHash(_nl)) << ", "
       << _L.state_words << "ull,\n"
       << "    " << levels << "u, " << (levels ? "kDense" : "0") << ",\n"
       << "};\n\n"
       << "} // namespace\n\n"
       << "extern \"C\" const AnvilKernel *\nanvil_kernel(void)\n"
       << "{\n    return &kKernel;\n}\n";
    return os.str();
}

} // namespace

std::string
emitCppKernel(const Netlist &nl, const std::string &design_name)
{
    CppEmitter e(nl, design_name);
    return e.run();
}

} // namespace codegen
} // namespace anvil
