#include "fault/FaultPlan.hh"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace san::fault {

FaultPlan *&
globalPlan()
{
    static FaultPlan *plan = nullptr;
    return plan;
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::LinkBitError: return "link-ber";
      case FaultKind::CreditLoss: return "credit-loss";
      case FaultKind::HandlerCrash: return "handler-crash";
      case FaultKind::DiskSpike: return "disk-spike";
      case FaultKind::DiskTimeout: return "disk-timeout";
      case FaultKind::BackendDown: return "backend-down";
      case FaultKind::BackendUp: return "backend-up";
    }
    return "?";
}

std::optional<FaultKind>
faultKindFromName(const std::string &name)
{
    for (unsigned i = 0; i < faultKindCount; ++i) {
        const auto kind = static_cast<FaultKind>(i);
        if (name == faultKindName(kind))
            return kind;
    }
    return std::nullopt;
}

bool
FaultSite::fire(double probability)
{
    // One draw per call regardless of probability: the stream
    // position depends only on how often the site is consulted.
    const bool hit = rng_.real() < probability;
    if (hit) {
        ++injected_;
        plan_.countInjection(kind_);
    }
    return hit;
}

namespace {

/** Split on ':' into at most @p max_parts pieces (last keeps ':'). */
std::vector<std::string>
splitColon(const std::string &text, std::size_t max_parts)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (parts.size() + 1 < max_parts) {
        const std::size_t colon = text.find(':', start);
        if (colon == std::string::npos)
            break;
        parts.push_back(text.substr(start, colon - start));
        start = colon + 1;
    }
    parts.push_back(text.substr(start));
    return parts;
}

bool
parseDouble(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

/** FNV-1a over the site name: stable across runs and platforms. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::optional<FaultSpec>
FaultPlan::parseSpec(const std::string &text, std::string *error)
{
    const auto parts = splitColon(text, 3);
    FaultSpec spec;
    const auto kind = faultKindFromName(parts[0]);
    if (!kind) {
        if (error)
            *error = "unknown fault kind '" + parts[0] +
                     "' (expected one of none, link-ber, credit-loss, "
                     "handler-crash, disk-spike, disk-timeout, "
                     "backend-down, backend-up)";
        return std::nullopt;
    }
    spec.kind = *kind;
    if (spec.kind != FaultKind::None) {
        if (parts.size() < 2 || !parseDouble(parts[1], &spec.rate) ||
            spec.rate < 0.0 || spec.rate > 1.0) {
            if (error)
                *error = "fault spec '" + text +
                         "' needs KIND:RATE with RATE in [0, 1]";
            return std::nullopt;
        }
    }
    if (parts.size() == 3) {
        if (!parseU64(parts[2], &spec.seed)) {
            if (error)
                *error = "fault spec '" + text + "' has a bad seed";
            return std::nullopt;
        }
        spec.seeded = true;
    }
    return spec;
}

std::optional<FaultEvent>
FaultPlan::parseAt(const std::string &text, std::string *error)
{
    const auto parts = splitColon(text, 3);
    if (parts.size() != 3) {
        if (error)
            *error = "fault event '" + text +
                     "' must be TICK:KIND:TARGET";
        return std::nullopt;
    }
    FaultEvent ev;
    if (!parseU64(parts[0], &ev.at)) {
        if (error)
            *error = "fault event '" + text +
                     "' has a bad tick (integer picoseconds)";
        return std::nullopt;
    }
    const auto kind = faultKindFromName(parts[1]);
    if (!kind || *kind == FaultKind::None) {
        if (error)
            *error = "fault event '" + text + "' has unknown kind '" +
                     parts[1] + "'";
        return std::nullopt;
    }
    ev.kind = *kind;
    ev.target = parts[2];
    if (ev.target.empty()) {
        if (error)
            *error = "fault event '" + text + "' has an empty target";
        return std::nullopt;
    }
    return ev;
}

void
FaultPlan::addSpec(const FaultSpec &spec)
{
    specs_.push_back(spec);
}

void
FaultPlan::addEvent(FaultEvent event)
{
    pendingKinds_ |= kindBit(event.kind);
    events_.push_back(std::move(event));
}

std::optional<double>
FaultPlan::rateOf(FaultKind kind) const
{
    for (const FaultSpec &spec : specs_)
        if (spec.kind == kind)
            return spec.rate;
    return std::nullopt;
}

std::uint64_t
FaultPlan::siteSeed(FaultKind kind, const std::string &name) const
{
    std::uint64_t seed = baseSeed_;
    for (const FaultSpec &spec : specs_)
        if (spec.kind == kind && spec.seeded)
            seed = spec.seed;
    // Mix in the kind and the site name so every site draws from an
    // independent stream even under one shared seed.
    return seed ^ (0x9e3779b97f4a7c15ull *
                   (static_cast<std::uint64_t>(kind) + 1)) ^
           fnv1a(name);
}

FaultSite *
FaultPlan::site(FaultKind kind, const std::string &name)
{
    if (!rateOf(kind))
        return nullptr;
    const auto key =
        std::make_pair(static_cast<unsigned>(kind), name);
    auto it = sites_.find(key);
    if (it == sites_.end()) {
        auto site = std::unique_ptr<FaultSite>(new FaultSite(
            *this, kind, name, *rateOf(kind), siteSeed(kind, name)));
        it = sites_.emplace(key, std::move(site)).first;
    }
    return it->second.get();
}

bool
FaultPlan::eventDue(FaultKind kind, const std::string &target,
                    sim::Tick now)
{
    if (!eventPending(kind))
        return false;
    bool still_pending = false;
    bool fired = false;
    for (FaultEvent &ev : events_) {
        if (ev.kind != kind || ev.consumed)
            continue;
        if (!fired && ev.target == target && now >= ev.at) {
            ev.consumed = true;
            fired = true;
            countInjection(kind);
            continue;
        }
        still_pending = true;
    }
    if (!still_pending)
        pendingKinds_ &= ~kindBit(kind);
    return fired;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream oss;
    for (const FaultSpec &spec : specs_) {
        oss << "spec " << faultKindName(spec.kind) << " rate "
            << spec.rate;
        if (spec.seeded)
            oss << " seed " << spec.seed;
        oss << '\n';
    }
    for (const FaultEvent &ev : events_)
        oss << "at " << ev.at << " " << faultKindName(ev.kind) << " -> "
            << ev.target << (ev.consumed ? " (consumed)" : "") << '\n';
    return oss.str();
}

} // namespace san::fault
