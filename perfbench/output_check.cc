/**
 * @file
 * Validates the output of perfbench/run.py with the strict bench JSON
 * parser (vspec_bench::json):
 *
 *   output_check BENCHMARK.json TRACE < captured-stdout
 *
 * TRACE is the --trace value of the captured run (0 or 1). The last two
 * non-empty lines must be the detail object {"perfbench": {...}} and the
 * result object {"correct", "attempted", "failed", "metrics"}. Checked:
 *
 *  - both lines parse as strict JSON;
 *  - the result has exactly its four keys, whole-number counts with
 *    attempted >= 1 and failed <= attempted, and exactly the metrics
 *    BENCHMARK.json names for this TRACE value, each a number with the
 *    unit BENCHMARK.json gives it;
 *  - every metric name fits [A-Za-z0-9_.-]+ (starting with a letter or
 *    digit, at most 64 characters) and every unit [A-Za-z0-9_/%.-]{1,16};
 *  - the detail's failed_frac is failed / attempted;
 *  - every reported percentile metric (a name containing "_p<digits>_"
 *    or "_tail_") has an entry in the detail's percentiles with its
 *    sample count, and at least ten samples lie beyond it, unless the
 *    detail lists it under not_measured (a layer the workload does not
 *    exercise), in which case its value must be 0;
 *  - the detail carries the build stamp and a 16-hex-digit digest.
 *
 * Exits 0 when valid; otherwise prints one line per problem and exits 1.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace json = vspec_bench::json;

namespace
{

std::vector<std::string> problems;

void
problem(const std::string &what)
{
    problems.push_back(what);
}

bool
isWholeNumber(const json::Value *v)
{
    return v && v->isNumber() && v->number >= 0.0 &&
           v->number == std::floor(v->number) && v->number < 9.007e15;
}

std::string
readAll(std::istream &in)
{
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Metric name -> unit for one section of BENCHMARK.json. */
std::vector<std::pair<std::string, std::string>>
declaredMetrics(const json::Value &bench, const std::string &section)
{
    std::vector<std::pair<std::string, std::string>> out;
    const json::Value *list = bench.find(section);
    if (!list || !list->isArray()) {
        problem("BENCHMARK.json has no " + section + " list");
        return out;
    }
    for (const json::Value &m : list->elements) {
        const json::Value *name = m.find("name");
        const json::Value *unit = m.find("unit");
        if (!name || !unit)
            problem("BENCHMARK.json " + section + " entry lacks name/unit");
        else
            out.emplace_back(name->text, unit->text);
    }
    return out;
}

void
checkResult(const json::Value &result, const json::Value &bench,
            bool trace)
{
    if (!result.isObject()) {
        problem("result line is not an object");
        return;
    }
    const std::set<std::string> keys = {"correct", "attempted", "failed",
                                        "metrics"};
    std::set<std::string> seen;
    for (const auto &[key, value] : result.members) {
        if (!keys.count(key))
            problem("result has unexpected key '" + key + "'");
        if (!seen.insert(key).second)
            problem("result repeats key '" + key + "'");
    }
    const json::Value *correct = result.find("correct");
    if (!correct || correct->kind != json::Value::Kind::boolean)
        problem("correct must be a boolean");
    const json::Value *attempted = result.find("attempted");
    const json::Value *failed = result.find("failed");
    if (!isWholeNumber(attempted) || attempted->number < 1.0)
        problem("attempted must be a whole number >= 1");
    if (!isWholeNumber(failed))
        problem("failed must be a whole number");
    else if (attempted && failed->number > attempted->number)
        problem("failed exceeds attempted");

    const json::Value *metrics = result.find("metrics");
    if (!metrics || !metrics->isObject()) {
        problem("metrics must be an object");
        return;
    }
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    const auto declared =
        declaredMetrics(bench, trace ? "per_layer" : "end_to_end");
    for (const auto &[name, value] : metrics->members) {
        if (!std::regex_match(name, name_re))
            problem("metric name '" + name + "' is malformed");
        const json::Value *number = value.find("value");
        const json::Value *unit = value.find("unit");
        if (value.members.size() != 2 || !number || !number->isNumber())
            problem("metric '" + name + "' needs exactly a numeric value "
                    "and a unit");
        if (!unit || unit->kind != json::Value::Kind::string ||
            !std::regex_match(unit->text, unit_re)) {
            problem("metric '" + name + "' has no valid unit");
            continue;
        }
        bool known = false;
        for (const auto &[dname, dunit] : declared) {
            if (dname != name)
                continue;
            known = true;
            if (dunit != unit->text)
                problem("metric '" + name + "' unit '" + unit->text +
                        "' differs from BENCHMARK.json ('" + dunit + "')");
        }
        if (!known)
            problem("metric '" + name + "' is not in BENCHMARK.json");
    }
    for (const auto &[dname, dunit] : declared) {
        if (!metrics->find(dname))
            problem("metric '" + dname + "' is missing");
    }
}

void
checkDetail(const json::Value &line, const json::Value &result)
{
    const json::Value *detail = line.find("perfbench");
    if (!line.isObject() || !detail || !detail->isObject()) {
        problem("detail line is not {\"perfbench\": {...}}");
        return;
    }
    const json::Value *stamp = detail->find("stamp");
    for (const char *key : {"build_type", "simd_backend", "compiler",
                            "nproc", "pool_workers"}) {
        if (!stamp || !stamp->find(key))
            problem(std::string("stamp lacks ") + key);
    }
    const json::Value *digest = detail->find("digest");
    if (!digest ||
        !std::regex_match(digest->text, std::regex("[0-9a-f]{16}")))
        problem("digest must be 16 hex digits");

    const json::Value *frac = detail->find("failed_frac");
    const json::Value *attempted = result.find("attempted");
    const json::Value *failed = result.find("failed");
    if (!frac || !frac->isNumber())
        problem("detail lacks failed_frac");
    else if (attempted && failed && attempted->number > 0.0 &&
             std::abs(frac->number -
                      failed->number / attempted->number) > 1e-12)
        problem("failed_frac is not failed / attempted");

    const json::Value *pcts = detail->find("percentiles");
    const json::Value *metrics = result.find("metrics");
    if (!pcts || !pcts->isObject()) {
        problem("detail lacks percentiles");
        return;
    }
    std::set<std::string> not_measured;
    if (const json::Value *list = detail->find("not_measured")) {
        for (const json::Value &name : list->elements)
            not_measured.insert(name.text);
    }
    const std::regex pct_name(".*_(p[0-9]+|tail)_.*");
    if (metrics) {
        for (const auto &[name, value] : metrics->members) {
            if (not_measured.count(name)) {
                const json::Value *number = value.find("value");
                if (number && number->number != 0.0)
                    problem("unmeasured metric '" + name + "' is not 0");
            } else if (std::regex_match(name, pct_name) &&
                       !pcts->find(name)) {
                problem("percentile metric '" + name +
                        "' has no sample count");
            }
        }
    }
    for (const auto &[name, entry] : pcts->members) {
        const json::Value *p = entry.find("percentile");
        const json::Value *n = entry.find("samples");
        if (!p || !p->isNumber() || !(p->number > 0.0) ||
            p->number > 100.0 || !isWholeNumber(n)) {
            problem("percentile '" + name +
                    "' needs a percentile in (0, 100] and a sample count");
            continue;
        }
        const double rank = std::ceil(p->number / 100.0 * n->number);
        if (n->number - rank < 10.0)
            problem("percentile '" + name + "' has fewer than 10 samples "
                    "beyond it");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || (std::string(argv[2]) != "0" &&
                      std::string(argv[2]) != "1")) {
        std::fprintf(stderr,
                     "usage: output_check BENCHMARK.json 0|1 < output\n");
        return 2;
    }
    std::ifstream bench_file(argv[1]);
    if (!bench_file) {
        std::fprintf(stderr, "output_check: cannot read %s\n", argv[1]);
        return 2;
    }
    std::vector<std::string> lines;
    {
        std::istringstream in(readAll(std::cin));
        for (std::string line; std::getline(in, line);) {
            if (line.find_first_not_of(" \t\r") != std::string::npos)
                lines.push_back(line);
        }
    }
    try {
        const json::Value bench = json::parse(readAll(bench_file));
        if (lines.size() < 2) {
            problem("expected a detail line and a result line");
        } else {
            const json::Value result = json::parse(lines.back());
            checkResult(result, bench, argv[2][0] == '1');
            checkDetail(json::parse(lines[lines.size() - 2]), result);
        }
    } catch (const json::ParseError &e) {
        problem(std::string("strict JSON parse failed: ") + e.what());
    }
    for (const std::string &p : problems)
        std::printf("output_check: %s\n", p.c_str());
    return problems.empty() ? 0 : 1;
}
