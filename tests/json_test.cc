/**
 * @file
 * Tests for the bench-side JSON substrate: the strict RFC 8259 parser
 * (vspec_bench::json) against a fuzz-style corpus of malformed
 * documents, the hardened JsonWriter (non-finite doubles become
 * null, malformed emission aborts), and the bench flag checks
 * (requireKnownFlags and the parsers that read only declared flags).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"

namespace
{

using vspec_bench::JsonWriter;
namespace json = vspec_bench::json;

TEST(JsonParser, ParsesScalars)
{
    EXPECT_TRUE(json::parse("null").isNull());
    EXPECT_TRUE(json::parse("true").boolean);
    EXPECT_FALSE(json::parse("false").boolean);
    EXPECT_DOUBLE_EQ(json::parse("0").number, 0.0);
    EXPECT_DOUBLE_EQ(json::parse("-12.5e2").number, -1250.0);
    EXPECT_DOUBLE_EQ(json::parse("1e-3").number, 1e-3);
    EXPECT_EQ(json::parse("\"hi\"").text, "hi");
    EXPECT_EQ(json::parse("  42  ").number, 42.0);
}

TEST(JsonParser, ParsesContainersPreservingOrder)
{
    const json::Value doc =
        json::parse("{\"b\":[1,2,3],\"a\":{\"x\":null},\"b\":false}");
    ASSERT_TRUE(doc.isObject());
    ASSERT_EQ(doc.members.size(), 3u);
    EXPECT_EQ(doc.members[0].first, "b");
    EXPECT_EQ(doc.members[1].first, "a");
    // find() returns the first member with the key.
    const json::Value *b = doc.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->elements.size(), 3u);
    EXPECT_DOUBLE_EQ(b->elements[2].number, 3.0);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParser, DecodesEscapesAndSurrogatePairs)
{
    EXPECT_EQ(json::parse("\"a\\n\\t\\\"\\\\\\/b\"").text,
              "a\n\t\"\\/b");
    EXPECT_EQ(json::parse("\"\\u0041\"").text, "A");
    // U+20AC EURO SIGN → 3-byte UTF-8.
    EXPECT_EQ(json::parse("\"\\u20ac\"").text, "\xe2\x82\xac");
    // U+1F600 via a surrogate pair → 4-byte UTF-8.
    EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").text,
              "\xf0\x9f\x98\x80");
}

TEST(JsonParser, RejectsAFuzzCorpusOfMalformedDocuments)
{
    const std::vector<std::string> corpus = {
        "",                      // empty input
        "   ",                   // whitespace only
        "{",                     // unterminated object
        "[1,2",                  // unterminated array
        "\"abc",                 // unterminated string
        "{\"a\":}",              // missing value
        "{\"a\" 1}",             // missing colon
        "{a:1}",                 // unquoted key
        "[1,]",                  // trailing comma
        "{\"a\":1,}",            // trailing comma in object
        "[,1]",                  // leading comma
        "nul",                   // truncated literal
        "truefalse",             // garbage after literal
        "1 2",                   // trailing garbage
        "{} {}",                 // two documents
        "01",                    // leading zero
        "-",                     // bare sign
        "1.",                    // dot without fraction
        ".5",                    // fraction without integer part
        "1e",                    // exponent without digits
        "+1",                    // leading plus
        "0x10",                  // hex is not JSON
        "Infinity",              // not a JSON number
        "NaN",                   // not a JSON number
        "'single'",              // wrong quotes
        "\"bad\\q\"",            // unknown escape
        "\"\\u12\"",             // short unicode escape
        "\"\\ud83d\"",           // lone high surrogate
        "\"\\ud83d\\u0041\"",    // high surrogate + non-low
        "\"\\ude00\"",           // lone low surrogate
        std::string("\"a\nb\""), // raw control character
        std::string("\"a\0b\"", 5), // embedded NUL in string
    };
    for (const std::string &input : corpus) {
        EXPECT_THROW((void)json::parse(input), json::ParseError)
            << "accepted: " << input;
    }
}

TEST(JsonParser, RejectsTruncationAtEveryPrefix)
{
    const std::string doc =
        "{\"series\":[{\"vdd\":1.05,\"p\":0.5}],\"ok\":true}";
    ASSERT_NO_THROW((void)json::parse(doc));
    for (std::size_t len = 0; len < doc.size(); ++len) {
        EXPECT_THROW((void)json::parse(doc.substr(0, len)),
                     json::ParseError)
            << "accepted prefix of length " << len;
    }
}

TEST(JsonParser, ReportsTheOffendingByteOffset)
{
    try {
        (void)json::parse("[1,2,!]");
        FAIL() << "parse accepted garbage";
    } catch (const json::ParseError &e) {
        EXPECT_EQ(e.offset, 5u);
        EXPECT_NE(std::string(e.what()).find("byte 5"),
                  std::string::npos);
    }
}

TEST(JsonParser, BoundsNestingDepth)
{
    // 64 levels parse; 65 must throw, long before any stack overflow.
    std::string ok(64, '['), bad(65, '[');
    ok += std::string(64, ']');
    bad += std::string(65, ']');
    EXPECT_NO_THROW((void)json::parse(ok));
    EXPECT_THROW((void)json::parse(bad), json::ParseError);
}

TEST(JsonParser, RoundTripsAJsonWriterDocument)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("quote \" slash \\ tab\tnewline\n");
    w.key("count").value(std::uint64_t(12345));
    w.key("ratio").value(0.1);
    w.key("flag").value(true);
    w.key("series").beginArray();
    for (int i = 0; i < 3; ++i) {
        w.beginObject();
        w.key("x").value(double(i) * 0.5);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    const json::Value doc = json::parse(w.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("name")->text,
              "quote \" slash \\ tab\tnewline\n");
    EXPECT_DOUBLE_EQ(doc.find("count")->number, 12345.0);
    EXPECT_DOUBLE_EQ(doc.find("ratio")->number, 0.1);
    EXPECT_TRUE(doc.find("flag")->boolean);
    ASSERT_EQ(doc.find("series")->elements.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.find("series")->elements[1].find("x")->number,
                     0.5);
}

TEST(JsonParser, ParsesTheCommittedGoldenDocument)
{
    std::ifstream in(std::string(VSPEC_SOURCE_DIR) +
                     "/tests/golden/fig13_error_probability.json");
    ASSERT_TRUE(in.good()) << "golden file missing";
    std::stringstream buffer;
    buffer << in.rdbuf();

    const json::Value doc = json::parse(buffer.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("artifact")->text, "fig13_error_probability");
    const json::Value *points = doc.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_TRUE(points->isArray());
    ASSERT_FALSE(points->elements.empty());
    EXPECT_TRUE(points->elements[0].find("vddMv")->isNumber());
}

TEST(JsonWriterHardening, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.value(-std::numeric_limits<double>::infinity());
    w.value(1.5);
    w.endArray();
    EXPECT_EQ(w.str(), "[null,null,null,1.5]");

    // And the document still parses.
    const json::Value doc = json::parse(w.str());
    EXPECT_TRUE(doc.elements[0].isNull());
    EXPECT_TRUE(doc.elements[1].isNull());
    EXPECT_TRUE(doc.elements[2].isNull());
    EXPECT_DOUBLE_EQ(doc.elements[3].number, 1.5);
}

TEST(JsonWriterHardening, DoublesRoundTripExactly)
{
    const std::vector<double> values = {
        0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, 1234567890.123456,
    };
    for (double v : values) {
        JsonWriter w;
        w.beginArray();
        w.value(v);
        w.endArray();
        const json::Value doc = json::parse(w.str());
        EXPECT_EQ(doc.elements[0].number, v);
    }
}

using JsonWriterDeath = ::testing::Test;

TEST(JsonWriterDeath, UnbalancedDocumentAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            JsonWriter w;
            w.beginObject();
            (void)w.str();
        },
        "malformed document");
}

TEST(JsonWriterDeath, DanglingKeyAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            JsonWriter w;
            w.beginObject();
            w.key("orphan");
            (void)w.str();
        },
        "malformed document");
}

TEST(JsonWriterDeath, CloseWithoutOpenAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            JsonWriter w;
            w.endObject();
        },
        "no open");
}

/**
 * Parse a bench command line the way a bench main does: declare the
 * flags, then read --json, --threads and --duration. Exits 0 when every
 * check passes; runs inside a death test so the declared list stays in
 * the child.
 */
[[noreturn]] void
runBenchMain(std::vector<std::string> args,
             std::initializer_list<const char *> declared)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    const int argc = int(argv.size());
    vspec_bench::requireKnownFlags(argc, argv.data(), declared);
    const bool json = vspec_bench::parseJson(argc, argv.data());
    const unsigned threads = vspec_bench::parseThreads(argc, argv.data());
    const double duration =
        vspec_bench::parseDoubleArg(argc, argv.data(), "duration", 1.0);
    std::exit(json && threads == 2 && duration == 3.0 ? 0 : 1);
}

using BenchFlagsDeath = ::testing::Test;

TEST(BenchFlagsDeath, DeclaredFlagsParseInBothSpellings)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto declared = {"--json", "--threads N", "--duration S"};
    EXPECT_EXIT(runBenchMain({"--json", "--threads", "2", "--duration=3"},
                             declared),
                ::testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeath, UnknownOrIncompleteFlagExitsTwo)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto declared = {"--json", "--threads N", "--duration S"};
    EXPECT_EXIT(runBenchMain({"--json", "--bogus-flag", "3"}, declared),
                ::testing::ExitedWithCode(2),
                "unknown or incomplete argument '--bogus-flag'\n"
                "usage: bench \\[--json\\] \\[--threads N\\]");
    EXPECT_EXIT(runBenchMain({"--json=1"}, declared),
                ::testing::ExitedWithCode(2), "argument '--json=1'");
    EXPECT_EXIT(runBenchMain({"--json", "--threads"}, declared),
                ::testing::ExitedWithCode(2), "argument '--threads'");
}

TEST(BenchFlagsDeath, ParsingAnUndeclaredFlagAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(runBenchMain({"--json"}, {"--json", "--threads N"}),
                 "parses '--duration V', which its requireKnownFlags list "
                 "does not declare");
    // The same name declared bare is a different flag.
    EXPECT_DEATH(runBenchMain({}, {"--json", "--threads N", "--duration"}),
                 "parses '--duration V'");
}

} // namespace
