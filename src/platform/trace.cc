#include "platform/trace.hh"

#include <sstream>

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

Millivolt
Trace::meanDomainSetpoint(unsigned domain) const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &s : samples_)
        sum += s.domainSetpoint.at(domain);
    return sum / double(samples_.size());
}

Watt
Trace::meanChipPower() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &s : samples_)
        sum += s.chipPower;
    return sum / double(samples_.size());
}

std::string
Trace::toTsv() const
{
    std::ostringstream os;
    if (samples_.empty())
        return "";

    const auto &first = samples_.front();
    os << "time";
    for (std::size_t d = 0; d < first.domainSetpoint.size(); ++d)
        os << "\tV_set_d" << d << "\tV_eff_d" << d << "\terr_rate_d" << d;
    os << "\tchip_power_w\tworkload_errors\n";

    for (const auto &s : samples_) {
        os << s.time;
        for (std::size_t d = 0; d < s.domainSetpoint.size(); ++d) {
            os << "\t" << s.domainSetpoint[d] << "\t"
               << s.domainEffective[d] << "\t" << s.domainErrorRate[d];
        }
        os << "\t" << s.chipPower << "\t" << s.workloadErrors << "\n";
    }
    return os.str();
}

void
Trace::saveState(StateWriter &w) const
{
    w.putU64(samples_.size());
    for (const TraceSample &s : samples_) {
        w.putDouble(s.time);
        w.putDoubleVector(s.domainSetpoint);
        w.putDoubleVector(s.domainEffective);
        w.putDoubleVector(s.domainErrorRate);
        w.putU64Vector(s.domainErrors);
        w.putDouble(s.chipPower);
        w.putDoubleVector(s.corePower);
        w.putU64(s.workloadErrors);
    }
}

void
Trace::loadState(StateReader &r)
{
    const std::uint64_t count = r.getU64();
    samples_.clear();
    samples_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceSample s;
        s.time = r.getDouble();
        s.domainSetpoint = r.getDoubleVector();
        s.domainEffective = r.getDoubleVector();
        s.domainErrorRate = r.getDoubleVector();
        s.domainErrors = r.getU64Vector();
        s.chipPower = r.getDouble();
        s.corePower = r.getDoubleVector();
        s.workloadErrors = r.getU64();
        samples_.push_back(std::move(s));
    }
}

} // namespace vspec
