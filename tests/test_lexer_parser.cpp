/**
 * @file
 * Lexer and parser unit tests: token kinds, SystemVerilog-style sized
 * literals, channel/process/term structure, operator precedence,
 * error recovery, out-of-range number literals, and the excerpt a
 * diagnostic on a very long line prints.
 */

#include <gtest/gtest.h>

#include "lang/lexer.h"
#include "lang/parser.h"

using namespace anvil;

namespace {

std::vector<Token>
lex(const std::string &src, DiagEngine &diags)
{
    Lexer lexer(src, diags);
    return lexer.lex();
}

TEST(Lexer, BasicTokens)
{
    DiagEngine d;
    auto toks = lex("chan proc >> ; := -- @ # dyn", d);
    ASSERT_FALSE(d.hasErrors());
    std::vector<Tok> kinds;
    for (const auto &t : toks)
        kinds.push_back(t.kind);
    EXPECT_EQ(kinds,
              (std::vector<Tok>{Tok::KwChan, Tok::KwProc, Tok::Arrow,
                                Tok::Semi, Tok::Assign, Tok::DashDash,
                                Tok::At, Tok::Hash, Tok::KwDyn,
                                Tok::Eof}));
}

TEST(Lexer, SizedLiterals)
{
    DiagEngine d;
    auto toks = lex("32'h100000 8'd255 1'b1 4'b1010 25", d);
    ASSERT_FALSE(d.hasErrors());
    EXPECT_EQ(toks[0].kind, Tok::SizedNumber);
    EXPECT_EQ(toks[0].width, 32);
    EXPECT_EQ(toks[0].value, 0x100000u);
    EXPECT_EQ(toks[1].width, 8);
    EXPECT_EQ(toks[1].value, 255u);
    EXPECT_EQ(toks[2].width, 1);
    EXPECT_EQ(toks[2].value, 1u);
    EXPECT_EQ(toks[3].value, 10u);
    EXPECT_EQ(toks[4].kind, Tok::Number);
    EXPECT_EQ(toks[4].width, 0);
}

TEST(Lexer, UndecodableLiteralsAreDiagnosed)
{
    struct Case
    {
        const char *src;
        const char *message;
    };
    for (const Case &c : {
             Case{"  99999999999999999999",
                  "number 99999999999999999999 does not fit in 64 bits"},
             Case{"  8'hzz", "literal 8'hzz has a digit outside its base"},
             Case{"  4'b102", "literal 4'b102 has a digit outside its base"},
             Case{"  128'h1ffffffffffffffff",
                  "literal 128'h1ffffffffffffffff does not fit in 64 bits"},
             Case{"  0'h1", "literal width 0 is out of range [1, 65536]"},
             Case{"  4294967297'h1",
                  "literal width 4294967297 is out of range [1, 65536]"},
         }) {
        DiagEngine d;
        lex(c.src, d);
        ASSERT_EQ(d.all().size(), 1u) << c.src;
        EXPECT_EQ(d.all()[0].message, c.message);
        EXPECT_EQ(d.all()[0].loc.line, 1);
        EXPECT_EQ(d.all()[0].loc.col, 3) << c.src;
    }
}

TEST(Lexer, CommentsAndStrings)
{
    DiagEngine d;
    auto toks = lex("a // comment\n /* block\ncomment */ b "
                    "\"hello world\"", d);
    ASSERT_FALSE(d.hasErrors());
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
    EXPECT_EQ(toks[2].kind, Tok::String);
    EXPECT_EQ(toks[2].text, "hello world");
}

TEST(Lexer, TracksLocations)
{
    DiagEngine d;
    auto toks = lex("a\n  b", d);
    EXPECT_EQ(toks[0].loc.line, 1);
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[1].loc.col, 3);
}

TEST(DiagEngine, LongLineExcerptKeepsTheCaretOnItsColumn)
{
    // One 10,000-column line; the diagnostic points at its Z.  The
    // excerpt is a window around the column, "..." at each cut, and
    // the caret row starts under the Z.
    for (int col : {1, 80, 5000, 9990, 10000}) {
        std::string line(10000, 'a');
        line[static_cast<size_t>(col - 1)] = 'Z';
        DiagEngine d;
        d.setSource("x\n" + line + "\ny\n", "long.anvil");
        d.error("bad token", SrcLoc{2, col});
        std::string out = d.render();
        ASSERT_LT(out.size(), 3 * DiagEngine::kEchoColumns) << col;
        std::vector<std::string> rows;
        for (size_t at = 0, nl; (nl = out.find('\n', at)) != std::string::npos;
             at = nl + 1)
            rows.push_back(out.substr(at, nl - at));
        ASSERT_EQ(rows.size(), 4u) << out;
        EXPECT_EQ(rows[1], "long.anvil:2:" + std::to_string(col) + ":");
        const std::string &echo = rows[2], &carets = rows[3];
        size_t at = carets.find('^');
        ASSERT_NE(at, std::string::npos) << col;
        EXPECT_EQ(echo[at], 'Z') << col;
        EXPECT_EQ(echo.compare(0, 3, "2| "), 0);
        EXPECT_EQ(echo.compare(3, 3, "...") == 0, col > 80) << col;
        EXPECT_EQ(echo.compare(echo.size() - 3, 3, "...") == 0, col < 9920)
            << col;
        // The carets run to the window's end.
        EXPECT_EQ(carets.size(),
                  echo.size() - (echo.compare(echo.size() - 3, 3, "...")
                                     ? 0
                                     : 3))
            << col;
    }
}

TEST(Parser, ChannelDefinition)
{
    DiagEngine d;
    Program p = parseAnvil(R"(
chan mem_ch {
    left rd_req : (logic[8]@#1) @#2-@dyn,
    right rd_res : (logic[8]@rd_req),
    right wr_res : (logic[1]@#1) @#wr_req+1-@#wr_req+1
}
)", d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
    const ChannelDef *c = p.findChannel("mem_ch");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->messages.size(), 3u);

    const MessageDef &rd_req = c->messages[0];
    EXPECT_EQ(rd_req.dir, MsgDir::Left);
    EXPECT_EQ(rd_req.width_expr, 8);
    EXPECT_EQ(rd_req.lifetime.kind, Duration::Kind::Cycles);
    EXPECT_EQ(rd_req.lifetime.cycles, 1);
    EXPECT_EQ(rd_req.left_sync.kind, SyncMode::Kind::Static);
    EXPECT_EQ(rd_req.left_sync.cycles, 2);
    EXPECT_EQ(rd_req.right_sync.kind, SyncMode::Kind::Dynamic);

    const MessageDef &rd_res = c->messages[1];
    EXPECT_EQ(rd_res.lifetime.kind, Duration::Kind::Message);
    EXPECT_EQ(rd_res.lifetime.msg, "rd_req");

    const MessageDef &wr_res = c->messages[2];
    EXPECT_EQ(wr_res.left_sync.kind, SyncMode::Kind::Dependent);
    EXPECT_EQ(wr_res.left_sync.dep_msg, "wr_req");
    EXPECT_EQ(wr_res.left_sync.cycles, 1);
}

TEST(Parser, MessagePlusDuration)
{
    DiagEngine d;
    Program p = parseAnvil(
        "chan c { left a : (logic[8]@res+1), right res : (logic@#1) }",
        d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
    const MessageDef *m = p.findChannel("c")->findMessage("a");
    EXPECT_EQ(m->lifetime.kind, Duration::Kind::Message);
    EXPECT_EQ(m->lifetime.msg, "res");
    EXPECT_EQ(m->lifetime.cycles, 1);
}

TEST(Parser, ProcessStructure)
{
    DiagEngine d;
    Program p = parseAnvil(R"(
chan c { left a : (logic@#1) }
proc child(ep : left c) { loop { cycle 1 } }
proc top() {
    reg r : logic[32];
    chan l -- rr : c;
    spawn child(l);
    loop { set r := *r + 1 >> cycle 1 }
    recursive { cycle 1 >> recurse }
}
)", d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
    const ProcDef *top = p.findProc("top");
    ASSERT_NE(top, nullptr);
    EXPECT_EQ(top->regs.size(), 1u);
    EXPECT_EQ(top->regs[0].width, 32);
    EXPECT_EQ(top->chans.size(), 1u);
    EXPECT_EQ(top->chans[0].left_ep, "l");
    EXPECT_EQ(top->spawns.size(), 1u);
    ASSERT_EQ(top->threads.size(), 2u);
    EXPECT_FALSE(top->threads[0].recursive);
    EXPECT_TRUE(top->threads[1].recursive);
}

TEST(Parser, WaitBindsLooserThanJoin)
{
    DiagEngine d;
    Program p = parseAnvil(R"(
proc t() { reg a : logic; reg b : logic;
    loop { set a := 1; set b := 2 >> cycle 1 }
}
)", d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
    const Term *body = p.findProc("t")->threads[0].body.get();
    // ((set a ; set b) >> cycle 1)
    ASSERT_EQ(body->kind, TermKind::Wait);
    EXPECT_EQ(body->kids[0]->kind, TermKind::Join);
    EXPECT_EQ(body->kids[1]->kind, TermKind::Cycle);
}

TEST(Parser, ExpressionPrecedence)
{
    DiagEngine d;
    Program p = parseAnvil(R"(
proc t() { reg r : logic[8];
    loop { set r := *r + 1 ^ *r & 3 >> cycle 1 }
}
)", d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
    // ^ binds looser than &, + binds tighter than both:
    // (*r + 1) ^ ((*r) & 3)
    const Term *body = p.findProc("t")->threads[0].body.get();
    const Term *rhs = body->kids[0]->kids[0].get();
    ASSERT_EQ(rhs->kind, TermKind::Binop);
    EXPECT_EQ(rhs->op, "^");
    EXPECT_EQ(rhs->kids[0]->op, "+");
    EXPECT_EQ(rhs->kids[1]->op, "&");
}

TEST(Parser, SliceAndIntrinsics)
{
    DiagEngine d;
    Program p = parseAnvil(R"(
proc t() { reg r : logic[32];
    loop { set r := (sbox((*r)[7:0])) + (shr(*r, 4))[3:0] >> cycle 1 }
}
)", d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
}

TEST(Parser, IfElseChains)
{
    DiagEngine d;
    Program p = parseAnvil(R"(
proc t() { reg r : logic[8];
    loop {
        if *r == 0 { set r := 1 } else {
        if *r == 1 { set r := 2 } else { set r := 0 } } >> cycle 1
    }
}
)", d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
}

TEST(Parser, ReportsSyntaxErrors)
{
    DiagEngine d;
    parseAnvil("proc t( { }", d);
    EXPECT_TRUE(d.hasErrors());
}

TEST(Parser, RecoversAfterBadProc)
{
    DiagEngine d;
    Program p = parseAnvil(R"(
proc bad( { }
proc good() { loop { cycle 1 } }
)", d);
    EXPECT_TRUE(d.hasErrors());
    EXPECT_NE(p.findProc("good"), nullptr);
}

TEST(Parser, OutOfRangeNumbersAreDiagnosed)
{
    struct Case
    {
        const char *src;
        const char *message;
        int col;
    };
    for (const Case &c : {
             Case{"proc p() { loop { cycle 4294967296 } }",
                  "cycle count 4294967296 is out of range [0, 65535]",
                  25},
             Case{"proc p() { loop { cycle 65536 } }",
                  "cycle count 65536 is out of range [0, 65535]", 25},
             Case{"proc p() { reg r : logic[4294967297]; loop { cycle 1 } }",
                  "bit width 4294967297 is out of range [1, 65536]", 26},
             Case{"proc p() { reg r : logic[0]; loop { cycle 1 } }",
                  "bit width 0 is out of range [1, 65536]", 26},
             Case{"chan c { left a : (logic@#2147483648) }",
                  "duration 2147483648 is out of range [0, 2147483647]",
                  27},
             Case{"chan c { left a : (logic@#1) @#4294967296 - @dyn }",
                  "sync cycles 4294967296 is out of range [0, 2147483647]",
                  32},
             Case{"proc p() { reg r : logic[8]; "
                  "loop { set r := *r[70000] >> cycle 1 } }",
                  "slice bound 70000 is out of range [0, 65535]", 49},
         }) {
        DiagEngine d;
        parseAnvil(c.src, d);
        ASSERT_EQ(d.all().size(), 1u) << c.src << "\n" << d.render();
        EXPECT_EQ(d.all()[0].message, c.message);
        EXPECT_EQ(d.all()[0].loc.col, c.col) << c.src;
    }
    // The largest count still parses.
    DiagEngine ok;
    parseAnvil("proc p() { loop { cycle 65535 } }", ok);
    EXPECT_FALSE(ok.hasErrors()) << ok.render();
}

TEST(Parser, DuplicateDefinitionsRejected)
{
    DiagEngine d;
    parseAnvil("proc a() { loop { cycle 1 } } "
               "proc a() { loop { cycle 1 } }", d);
    EXPECT_TRUE(d.hasErrors());
}

TEST(Parser, TypeAliases)
{
    DiagEngine d;
    Program p = parseAnvil(R"(
type addr_data_pair = logic[40];
chan c { left wr : (addr_data_pair@#1) }
)", d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
    EXPECT_EQ(p.typeWidth("addr_data_pair", 1), 40);
    const MessageDef *m = p.findChannel("c")->findMessage("wr");
    EXPECT_EQ(p.typeWidth(m->dtype, m->width_expr), 40);
}

} // namespace
