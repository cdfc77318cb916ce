/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: standard
 * chip construction, fixed seeds, and small table-printing utilities.
 *
 * Every binary prints the rows/series of one artifact of the paper's
 * evaluation. Absolute numbers come from the calibrated simulation
 * substrate (see DESIGN.md); the shapes are what reproduce the paper.
 */

#ifndef VSPEC_BENCH_BENCH_UTIL_HH
#define VSPEC_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "vspec/vspec.hh"

namespace vspec_bench
{

/** The seed used for the "evaluation platform" chip in every bench. */
constexpr std::uint64_t evalSeed = 42;

/** Config of the standard 8-core evaluation chip at the low point. */
inline vspec::ChipConfig
makeLowConfig()
{
    vspec::ChipConfig cfg;
    cfg.seed = evalSeed;
    return cfg;
}

/** Config of the evaluation chip at the high (2.53 GHz) point. */
inline vspec::ChipConfig
makeHighConfig()
{
    vspec::ChipConfig cfg = makeLowConfig();
    cfg.operatingPoint = vspec::OperatingPoint::high();
    return cfg;
}

/** Build the standard 8-core evaluation chip at the low point. */
inline vspec::Chip
makeLowChip()
{
    return vspec::Chip(makeLowConfig());
}

/** Build the evaluation chip at the high (2.53 GHz) point. */
inline vspec::Chip
makeHighChip()
{
    return vspec::Chip(makeHighConfig());
}

/**
 * Worker-thread count from a "--threads N" / "--threads=N" argument;
 * 0 (the default) means one worker per hardware thread. Results are
 * bit-identical for every thread count (see DESIGN.md).
 */
inline unsigned
parseThreads(int argc, char **argv)
{
    unsigned threads = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc)
            threads = unsigned(std::strtoul(argv[++i], nullptr, 10));
        else if (arg.rfind("--threads=", 0) == 0)
            threads =
                unsigned(std::strtoul(arg.c_str() + 10, nullptr, 10));
    }
    return threads;
}

/**
 * Value of a "--name X" / "--name=X" double argument, or @p fallback
 * when absent (e.g. "--duration 8" on the fleet benches).
 */
inline double
parseDoubleArg(int argc, char **argv, const std::string &name,
               double fallback)
{
    const std::string flag = "--" + name;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == flag && i + 1 < argc)
            return std::strtod(argv[i + 1], nullptr);
        if (arg.rfind(flag + "=", 0) == 0)
            return std::strtod(arg.c_str() + flag.size() + 1, nullptr);
    }
    return fallback;
}

/**
 * Value of a "--name X" / "--name=X" string argument, or @p fallback
 * when absent (e.g. "--checkpoint state.snap" on the long benches).
 */
inline std::string
parseStringArg(int argc, char **argv, const std::string &name,
               const std::string &fallback)
{
    const std::string flag = "--" + name;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == flag && i + 1 < argc)
            return argv[i + 1];
        if (arg.rfind(flag + "=", 0) == 0)
            return arg.substr(flag.size() + 1);
    }
    return fallback;
}

/**
 * Traffic sampling fidelity (the Simulator tick, or the hot fleet's
 * advance; calibration always runs exact) from a "--sampling
 * exact|chip-batched" argument (default exact, matching the goldens).
 * Both modes are deterministic; chip-batched draws a different
 * (aggregated) RNG sequence, so each mode has its own replay stream.
 * Unknown values print a usage message and exit 2.
 */
inline vspec::SamplingMode
parseSampling(int argc, char **argv)
{
    const std::string mode =
        parseStringArg(argc, argv, "sampling", "exact");
    if (mode == "exact")
        return vspec::SamplingMode::exact;
    if (mode == "chip-batched")
        return vspec::SamplingMode::chipBatched;
    std::fprintf(stderr,
                 "unknown --sampling mode '%s' "
                 "(exact|chip-batched)\n",
                 mode.c_str());
    std::exit(2);
}

/** Flag value for reprinting (--sampling round-trips through it). */
inline const char *
samplingName(vspec::SamplingMode mode)
{
    return vspec::samplingModeName(mode);
}

/**
 * True when "--json" appears in the arguments. Benches that support it
 * replace the human-readable table with one machine-readable JSON
 * document on stdout (for scripted sweeps and plotting pipelines).
 */
inline bool
parseJson(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            return true;
    }
    return false;
}

/** True when the bare flag "--name" is present. */
inline bool
parseBoolFlag(int argc, char **argv, const std::string &name)
{
    const std::string flag = "--" + name;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == flag)
            return true;
    }
    return false;
}

/**
 * Minimal JSON document builder for the bench binaries: explicit
 * object/array nesting with automatic comma placement and string
 * escaping. Numbers print with enough digits to round-trip a double,
 * so --json output is byte-stable across runs and thread counts
 * whenever the underlying simulation is.
 *
 * The writer refuses to emit a malformed document: non-finite doubles
 * become JSON null (the "%g" spellings "nan"/"inf" are not JSON), and
 * str()/print() abort if nesting is unbalanced or a key() is still
 * waiting for its value — a structural bug in the bench, caught at the
 * emit site instead of in the consumer's parser.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** Key of the next member (only valid directly inside an object). */
    JsonWriter &key(const std::string &name)
    {
        separate();
        appendString(name);
        out += ':';
        pendingKey = true;
        return *this;
    }

    JsonWriter &value(const std::string &text)
    {
        separate();
        appendString(text);
        return *this;
    }

    JsonWriter &value(const char *text)
    {
        return value(std::string(text));
    }

    JsonWriter &value(double number)
    {
        separate();
        if (!std::isfinite(number)) {
            out += "null";
            return *this;
        }
        char buffer[40];
        std::snprintf(buffer, sizeof(buffer), "%.17g", number);
        out += buffer;
        return *this;
    }

    JsonWriter &value(std::uint64_t number)
    {
        separate();
        out += std::to_string(number);
        return *this;
    }

    JsonWriter &value(unsigned number)
    {
        return value(std::uint64_t(number));
    }

    JsonWriter &value(bool flag)
    {
        separate();
        out += flag ? "true" : "false";
        return *this;
    }

    const std::string &str() const
    {
        checkComplete();
        return out;
    }

    /** Print the finished document and a trailing newline. */
    void print() const
    {
        checkComplete();
        std::printf("%s\n", out.c_str());
    }

  private:
    std::string out;
    std::size_t depth = 0;
    bool needComma = false;
    bool pendingKey = false;

    void checkComplete() const
    {
        if (depth != 0 || pendingKey) {
            std::fprintf(stderr,
                         "JsonWriter: emitting malformed document "
                         "(depth %zu, pending key %d)\n",
                         depth, int(pendingKey));
            std::abort();
        }
    }

    JsonWriter &open(char bracket)
    {
        separate();
        out += bracket;
        ++depth;
        needComma = false;
        return *this;
    }

    JsonWriter &close(char bracket)
    {
        if (depth == 0 || pendingKey) {
            std::fprintf(stderr,
                         "JsonWriter: closing '%c' with no open "
                         "scope or a dangling key\n", bracket);
            std::abort();
        }
        out += bracket;
        --depth;
        needComma = true;
        return *this;
    }

    void separate()
    {
        if (pendingKey) {
            pendingKey = false;
            return;
        }
        if (needComma)
            out += ',';
        needComma = true;
    }

    void appendString(const std::string &text)
    {
        out += '"';
        for (char ch : text) {
            switch (ch) {
              case '"': out += "\\\""; break;
              case '\\': out += "\\\\"; break;
              case '\n': out += "\\n"; break;
              case '\t': out += "\\t"; break;
              default: out += ch;
            }
        }
        out += '"';
    }
};

namespace json
{

/**
 * Strict JSON parsing for the bench pipelines (checkpoint manifests,
 * golden-compare tooling, and the tests that fuzz them). The parser is
 * a plain recursive-descent reader over the whole document:
 *
 *  - every deviation from RFC 8259 — truncation, trailing garbage,
 *    trailing commas, bad escapes, raw control characters, malformed
 *    numbers, lone surrogates, over-deep nesting — throws ParseError
 *    with the byte offset; nothing is ever read past the buffer;
 *  - object member order is preserved (JsonWriter emission order), so
 *    a parse → reserialize round-trip is stable.
 */
struct ParseError : std::runtime_error
{
    ParseError(const std::string &what, std::size_t at)
        : std::runtime_error(what + " at byte " + std::to_string(at)),
          offset(at)
    {
    }

    std::size_t offset;
};

struct Value
{
    enum class Kind { null, boolean, number, string, array, object };

    Kind kind = Kind::null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<Value> elements;
    std::vector<std::pair<std::string, Value>> members;

    bool isNull() const { return kind == Kind::null; }
    bool isNumber() const { return kind == Kind::number; }
    bool isObject() const { return kind == Kind::object; }
    bool isArray() const { return kind == Kind::array; }

    /** First member with @p key, or nullptr (objects only). */
    const Value *find(const std::string &key) const
    {
        for (const auto &[name, value] : members) {
            if (name == key)
                return &value;
        }
        return nullptr;
    }
};

namespace detail
{

class Parser
{
  public:
    explicit Parser(const std::string &input) : text(input) {}

    Value parseDocument()
    {
        Value value = parseValue(0);
        skipWhitespace();
        if (pos != text.size())
            throw ParseError("trailing garbage after document", pos);
        return value;
    }

  private:
    const std::string &text;
    std::size_t pos = 0;

    static constexpr std::size_t maxDepth = 64;

    [[noreturn]] void fail(const std::string &what) const
    {
        throw ParseError(what, pos);
    }

    char peek() const
    {
        if (pos >= text.size())
            throw ParseError("unexpected end of document", pos);
        return text[pos];
    }

    char take()
    {
        const char ch = peek();
        ++pos;
        return ch;
    }

    void expect(char ch, const char *what)
    {
        if (take() != ch)
            fail(std::string("expected ") + what);
    }

    void skipWhitespace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    void expectLiteral(const char *literal)
    {
        for (const char *p = literal; *p != '\0'; ++p) {
            if (pos >= text.size() || text[pos] != *p)
                fail(std::string("malformed literal (expected '") +
                     literal + "')");
            ++pos;
        }
    }

    Value parseValue(std::size_t depth)
    {
        if (depth >= maxDepth)
            fail("nesting deeper than " + std::to_string(maxDepth));
        skipWhitespace();
        switch (peek()) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': return parseString();
          case 't': expectLiteral("true"); return makeBool(true);
          case 'f': expectLiteral("false"); return makeBool(false);
          case 'n': expectLiteral("null"); return Value{};
          default: return parseNumber();
        }
    }

    static Value makeBool(bool flag)
    {
        Value value;
        value.kind = Value::Kind::boolean;
        value.boolean = flag;
        return value;
    }

    Value parseObject(std::size_t depth)
    {
        Value value;
        value.kind = Value::Kind::object;
        expect('{', "'{'");
        skipWhitespace();
        if (peek() == '}') {
            ++pos;
            return value;
        }
        while (true) {
            skipWhitespace();
            if (peek() != '"')
                fail("object key must be a string");
            Value key = parseString();
            skipWhitespace();
            expect(':', "':' after object key");
            value.members.emplace_back(std::move(key.text),
                                       parseValue(depth + 1));
            skipWhitespace();
            const char next = take();
            if (next == '}')
                return value;
            if (next != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Value parseArray(std::size_t depth)
    {
        Value value;
        value.kind = Value::Kind::array;
        expect('[', "'['");
        skipWhitespace();
        if (peek() == ']') {
            ++pos;
            return value;
        }
        while (true) {
            value.elements.push_back(parseValue(depth + 1));
            skipWhitespace();
            const char next = take();
            if (next == ']')
                return value;
            if (next != ',')
                fail("expected ',' or ']' in array");
        }
    }

    unsigned parseHex4()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char ch = take();
            code <<= 4;
            if (ch >= '0' && ch <= '9')
                code |= unsigned(ch - '0');
            else if (ch >= 'a' && ch <= 'f')
                code |= unsigned(ch - 'a' + 10);
            else if (ch >= 'A' && ch <= 'F')
                code |= unsigned(ch - 'A' + 10);
            else
                fail("bad \\u escape digit");
        }
        return code;
    }

    void appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += char(code);
        } else if (code < 0x800) {
            out += char(0xC0 | (code >> 6));
            out += char(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += char(0xE0 | (code >> 12));
            out += char(0x80 | ((code >> 6) & 0x3F));
            out += char(0x80 | (code & 0x3F));
        } else {
            out += char(0xF0 | (code >> 18));
            out += char(0x80 | ((code >> 12) & 0x3F));
            out += char(0x80 | ((code >> 6) & 0x3F));
            out += char(0x80 | (code & 0x3F));
        }
    }

    Value parseString()
    {
        Value value;
        value.kind = Value::Kind::string;
        expect('"', "'\"'");
        while (true) {
            const char ch = take();
            if (ch == '"')
                return value;
            if (static_cast<unsigned char>(ch) < 0x20)
                fail("raw control character in string");
            if (ch != '\\') {
                value.text += ch;
                continue;
            }
            const char escape = take();
            switch (escape) {
              case '"': value.text += '"'; break;
              case '\\': value.text += '\\'; break;
              case '/': value.text += '/'; break;
              case 'b': value.text += '\b'; break;
              case 'f': value.text += '\f'; break;
              case 'n': value.text += '\n'; break;
              case 'r': value.text += '\r'; break;
              case 't': value.text += '\t'; break;
              case 'u': {
                  unsigned code = parseHex4();
                  if (code >= 0xD800 && code <= 0xDBFF) {
                      // High surrogate: require the low half.
                      if (pos + 1 >= text.size() || text[pos] != '\\' ||
                          text[pos + 1] != 'u')
                          fail("lone high surrogate");
                      pos += 2;
                      const unsigned low = parseHex4();
                      if (low < 0xDC00 || low > 0xDFFF)
                          fail("bad low surrogate");
                      code = 0x10000 + ((code - 0xD800) << 10) +
                             (low - 0xDC00);
                  } else if (code >= 0xDC00 && code <= 0xDFFF) {
                      fail("lone low surrogate");
                  }
                  appendUtf8(value.text, code);
                  break;
              }
              default: fail("bad escape character");
            }
        }
    }

    Value parseNumber()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        // Integer part: "0" or [1-9][0-9]* — no leading zeros, no
        // leading '+', no bare '.', per RFC 8259.
        if (peek() == '0') {
            ++pos;
        } else if (peek() >= '1' && peek() <= '9') {
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        } else {
            fail("malformed number");
        }
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (pos >= text.size() || text[pos] < '0' ||
                text[pos] > '9')
                fail("malformed number fraction");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() || text[pos] < '0' ||
                text[pos] > '9')
                fail("malformed number exponent");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        Value value;
        value.kind = Value::Kind::number;
        value.number =
            std::strtod(text.substr(start, pos - start).c_str(),
                        nullptr);
        return value;
    }
};

} // namespace detail

/** Parse @p input as one strict JSON document. Throws ParseError. */
inline Value
parse(const std::string &input)
{
    return detail::Parser(input).parseDocument();
}

} // namespace json

/** The four evaluation suites of Section V. */
inline const std::vector<vspec::Suite> &
evalSuites()
{
    static const std::vector<vspec::Suite> suites = {
        vspec::Suite::coreMark,
        vspec::Suite::specJbb2005,
        vspec::Suite::specInt2000,
        vspec::Suite::specFp2000,
    };
    return suites;
}

/** Print a banner naming the reproduced artifact. */
inline void
banner(const char *artifact, const char *caption)
{
    std::printf("==========================================================="
                "=====\n");
    std::printf("%s — %s\n", artifact, caption);
    std::printf("Reproduction of Bacha & Teodorescu, \"Using ECC Feedback "
                "to Guide\nVoltage Speculation in Low-Voltage Processors\" "
                "(MICRO 2014)\n");
    std::printf("==========================================================="
                "=====\n");
}

/** Simple fixed-width row printing. */
inline void
row(const std::string &label, const std::vector<std::string> &cells)
{
    std::printf("%-24s", label.c_str());
    for (const auto &cell : cells)
        std::printf(" %12s", cell.c_str());
    std::printf("\n");
}

inline std::string
fmt(const char *format, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), format, value);
    return buffer;
}

} // namespace vspec_bench

#endif // VSPEC_BENCH_BENCH_UTIL_HH
