/**
 * @file
 * Tiny JSON-Schema checker for the telemetry artifacts, used by the
 * cli_obs_e2e test and CI to pin the --metrics / --profile /
 * --stats-json output against the schemas checked in under
 * docs/schemas/.
 *
 * Two modes:
 *
 *   json_validate <schema.json> <doc.json>
 *       Validate the document; failures are printed one per line as
 *       "<path>: <why>" and the exit code is 1.
 *
 *   json_validate --canon <doc.json> [--drop key1,key2]
 *       Parse the document, drop the named top-level members
 *       (timing keys that legitimately differ run to run), and print
 *       the canonical compact dump — two runs are deterministic iff
 *       their canonical forms compare equal.
 *
 *   json_validate --lines <schema.json> <doc.jsonl>
 *       Validate a JSONL stream (the "anvil-events-v2" telemetry
 *       event streams): every non-empty line must parse and satisfy
 *       the schema.  Failures are prefixed with the line number.
 *
 * The supported schema subset is exactly what the checked-in schemas
 * need: type (string or list, with "integer"), required, properties,
 * additionalProperties (bool or schema), items, minItems, and enum.
 * Unknown schema keywords are ignored, as the spec requires.
 *
 * Exit codes: 0 ok, 1 validation failure, 2 usage, 3 I/O or parse
 * error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.h"

using anvil::json::Value;

namespace {

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    *out = os.str();
    return true;
}

const char *
kindName(Value::Kind k)
{
    switch (k) {
    case Value::Kind::Null: return "null";
    case Value::Kind::Bool: return "boolean";
    case Value::Kind::Number: return "number";
    case Value::Kind::String: return "string";
    case Value::Kind::Array: return "array";
    case Value::Kind::Object: return "object";
    }
    return "?";
}

bool
matchesType(const Value &doc, const std::string &type)
{
    if (type == "integer")
        return doc.isInteger();
    if (type == "number")
        return doc.isNumber();
    return type == kindName(doc.kind);
}

class Validator
{
  public:
    void check(const Value &schema, const Value &doc,
               const std::string &path)
    {
        if (const Value *type = schema.find("type"))
            checkType(*type, doc, path);
        if (const Value *en = schema.find("enum"))
            checkEnum(*en, doc, path);
        if (doc.isObject())
            checkObject(schema, doc, path);
        if (doc.isArray())
            checkArray(schema, doc, path);
    }

    const std::vector<std::string> &errors() const { return _errors; }

  private:
    void report(const std::string &path, const std::string &why)
    {
        _errors.push_back((path.empty() ? "$" : path) + ": " + why);
    }

    void checkType(const Value &type, const Value &doc,
                   const std::string &path)
    {
        std::vector<std::string> allowed;
        if (type.isString())
            allowed.push_back(type.str);
        else if (type.isArray())
            for (const Value &t : type.arr)
                if (t.isString())
                    allowed.push_back(t.str);
        for (const std::string &t : allowed)
            if (matchesType(doc, t))
                return;
        std::string want;
        for (size_t i = 0; i < allowed.size(); i++)
            want += (i ? " or " : "") + allowed[i];
        report(path, "expected " + want + ", got " +
                         kindName(doc.kind));
    }

    void checkEnum(const Value &en, const Value &doc,
                   const std::string &path)
    {
        for (const Value &v : en.arr)
            if (v.dump() == doc.dump())
                return;
        report(path, "value " + doc.dump() + " not in enum");
    }

    void checkObject(const Value &schema, const Value &doc,
                     const std::string &path)
    {
        const Value *props = schema.find("properties");
        if (const Value *req = schema.find("required"))
            for (const Value &r : req->arr)
                if (r.isString() && !doc.find(r.str))
                    report(path,
                           "missing required member \"" + r.str +
                               "\"");
        const Value *extra = schema.find("additionalProperties");
        for (const auto &kv : doc.obj) {
            std::string sub = path + "." + kv.first;
            const Value *ps =
                props ? props->find(kv.first) : nullptr;
            if (ps) {
                check(*ps, kv.second, sub);
            } else if (extra) {
                if (extra->isBool() && !extra->boolean)
                    report(sub, "unexpected member");
                else if (extra->isObject())
                    check(*extra, kv.second, sub);
            }
        }
    }

    void checkArray(const Value &schema, const Value &doc,
                    const std::string &path)
    {
        if (const Value *min = schema.find("minItems"))
            if (doc.arr.size() <
                static_cast<size_t>(min->asDouble()))
                report(path, "fewer than minItems elements");
        if (const Value *items = schema.find("items"))
            for (size_t i = 0; i < doc.arr.size(); i++)
                check(*items, doc.arr[i],
                      path + "[" + std::to_string(i) + "]");
    }

    std::vector<std::string> _errors;
};

int
canonMode(int argc, char **argv)
{
    std::string doc_path;
    std::vector<std::string> drop;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--drop" && i + 1 < argc) {
            std::string list = argv[++i];
            size_t start = 0;
            while (start <= list.size()) {
                size_t comma = list.find(',', start);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > start)
                    drop.push_back(
                        list.substr(start, comma - start));
                start = comma + 1;
            }
        } else if (doc_path.empty()) {
            doc_path = arg;
        } else {
            fprintf(stderr, "json_validate: multiple documents\n");
            return 2;
        }
    }
    if (doc_path.empty()) {
        fprintf(stderr,
                "usage: json_validate --canon <doc.json> "
                "[--drop k1,k2]\n");
        return 2;
    }
    std::string text;
    if (!readFile(doc_path, &text)) {
        fprintf(stderr, "json_validate: cannot read '%s'\n",
                doc_path.c_str());
        return 3;
    }
    anvil::json::ParseResult res = anvil::json::parse(text);
    if (!res.ok()) {
        fprintf(stderr, "json_validate: %s: %s\n", doc_path.c_str(),
                res.error.c_str());
        return 3;
    }
    Value &v = res.value;
    for (const std::string &key : drop)
        for (size_t i = 0; i < v.obj.size();)
            if (v.obj[i].first == key)
                v.obj.erase(v.obj.begin() + static_cast<long>(i));
            else
                i++;
    printf("%s\n", v.dump().c_str());
    return 0;
}

int
linesMode(int argc, char **argv)
{
    if (argc != 4) {
        fprintf(stderr, "usage: json_validate --lines "
                        "<schema.json> <doc.jsonl>\n");
        return 2;
    }
    std::string schema_text, doc_text;
    if (!readFile(argv[2], &schema_text)) {
        fprintf(stderr, "json_validate: cannot read '%s'\n",
                argv[2]);
        return 3;
    }
    if (!readFile(argv[3], &doc_text)) {
        fprintf(stderr, "json_validate: cannot read '%s'\n",
                argv[3]);
        return 3;
    }
    anvil::json::ParseResult schema =
        anvil::json::parse(schema_text);
    if (!schema.ok()) {
        fprintf(stderr, "json_validate: %s: %s\n", argv[2],
                schema.error.c_str());
        return 3;
    }

    std::istringstream is(doc_text);
    std::string line;
    size_t lineno = 0, events = 0, errors = 0;
    while (std::getline(is, line)) {
        lineno++;
        if (line.empty())
            continue;
        anvil::json::ParseResult doc = anvil::json::parse(line);
        if (!doc.ok()) {
            fprintf(stderr, "%s:%zu: %s\n", argv[3], lineno,
                    doc.error.c_str());
            errors++;
            continue;
        }
        events++;
        Validator v;
        v.check(schema.value, doc.value, "");
        for (const std::string &e : v.errors())
            fprintf(stderr, "%s:%zu: %s\n", argv[3], lineno,
                    e.c_str());
        errors += v.errors().size();
    }
    if (events == 0) {
        fprintf(stderr, "json_validate: %s: no events\n", argv[3]);
        return 1;
    }
    if (errors) {
        fprintf(stderr,
                "json_validate: %s: %zu error(s) over %zu event(s) "
                "against %s\n",
                argv[3], errors, events, argv[2]);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && strcmp(argv[1], "--canon") == 0)
        return canonMode(argc, argv);
    if (argc >= 2 && strcmp(argv[1], "--lines") == 0)
        return linesMode(argc, argv);
    if (argc != 3) {
        fprintf(stderr,
                "usage: json_validate <schema.json> <doc.json>\n"
                "       json_validate --canon <doc.json> "
                "[--drop k1,k2]\n"
                "       json_validate --lines <schema.json> "
                "<doc.jsonl>\n");
        return 2;
    }
    std::string schema_text, doc_text;
    if (!readFile(argv[1], &schema_text)) {
        fprintf(stderr, "json_validate: cannot read '%s'\n",
                argv[1]);
        return 3;
    }
    if (!readFile(argv[2], &doc_text)) {
        fprintf(stderr, "json_validate: cannot read '%s'\n",
                argv[2]);
        return 3;
    }
    anvil::json::ParseResult schema = anvil::json::parse(schema_text);
    if (!schema.ok()) {
        fprintf(stderr, "json_validate: %s: %s\n", argv[1],
                schema.error.c_str());
        return 3;
    }
    anvil::json::ParseResult doc = anvil::json::parse(doc_text);
    if (!doc.ok()) {
        fprintf(stderr, "json_validate: %s: %s\n", argv[2],
                doc.error.c_str());
        return 3;
    }
    Validator v;
    v.check(schema.value, doc.value, "");
    for (const std::string &e : v.errors())
        fprintf(stderr, "%s\n", e.c_str());
    if (!v.errors().empty()) {
        fprintf(stderr, "json_validate: %s: %zu error(s) against %s\n",
                argv[2], v.errors().size(), argv[1]);
        return 1;
    }
    return 0;
}
