#include "config.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "logging.hh"

namespace mithril
{

ParamSet
ParamSet::fromArgs(int argc, const char *const *argv)
{
    std::vector<std::string> tokens;
    tokens.reserve(argc > 1 ? argc - 1 : 0);
    for (int i = 1; i < argc; ++i)
        tokens.emplace_back(argv[i]);
    return fromTokens(tokens);
}

ParamSet
ParamSet::fromTokens(const std::vector<std::string> &tokens)
{
    ParamSet params;
    for (const std::string &token : tokens) {
        auto eq = token.find('=');
        if (eq == std::string::npos) {
            params.positional_.push_back(token);
            continue;
        }
        const std::string key = token.substr(0, eq);
        if (params.has(key))
            fatal("duplicate parameter: %s (given more than once)",
                  key.c_str());
        params.set(key, token.substr(eq + 1));
    }
    return params;
}

ParamSet
ParamSet::fromString(const std::string &text)
{
    std::vector<std::string> tokens;
    std::stringstream ss(text);
    std::string token;
    while (ss >> token)
        tokens.push_back(token);
    return fromTokens(tokens);
}

void
ParamSet::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
ParamSet::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
ParamSet::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::int64_t
ParamSet::getInt(const std::string &key, std::int64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    long long v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("parameter %s=%s is not an integer", key.c_str(),
              it->second.c_str());
    return v;
}

std::uint64_t
ParamSet::getUint(const std::string &key, std::uint64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    unsigned long long v = std::strtoull(it->second.c_str(), &end, 0);
    // strtoull silently wraps negatives; reject them explicitly.
    if (end == it->second.c_str() || *end != '\0' ||
        it->second[0] == '-')
        fatal("parameter %s=%s is not an unsigned integer", key.c_str(),
              it->second.c_str());
    return v;
}

std::uint32_t
ParamSet::getUint32(const std::string &key, std::uint32_t def) const
{
    const std::uint64_t v = getUint(key, def);
    if (v > 0xffffffffull)
        fatal("parameter %s=%llu is out of range (max %u)",
              key.c_str(), static_cast<unsigned long long>(v),
              0xffffffffu);
    return static_cast<std::uint32_t>(v);
}

double
ParamSet::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("parameter %s=%s is not a number", key.c_str(),
              it->second.c_str());
    return v;
}

double
ParamSet::getDoubleIn(const std::string &key, double def, double min,
                      double max) const
{
    const double v = getDouble(key, def);
    // Written so that NaN, which compares false with everything, fails.
    if (!(v >= min && v <= max))
        fatal("parameter %s=%g is out of range [%g, %g]", key.c_str(),
              v, min, max);
    return v;
}

bool
ParamSet::getBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("parameter %s=%s is not a boolean", key.c_str(), v.c_str());
    return def;
}

std::vector<std::string>
ParamSet::getStringList(const std::string &key) const
{
    std::vector<std::string> out;
    std::string token;
    std::stringstream ss(getString(key, ""));
    while (std::getline(ss, token, ',')) {
        while (!token.empty() && token.front() == ' ')
            token.erase(token.begin());
        while (!token.empty() && token.back() == ' ')
            token.pop_back();
        if (!token.empty())
            out.push_back(token);
    }
    return out;
}

std::vector<std::uint64_t>
ParamSet::getUintList(const std::string &key) const
{
    std::vector<std::uint64_t> out;
    for (const std::string &token : getStringList(key)) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(token.c_str(), &end, 0);
        // strtoull silently wraps negatives; reject them explicitly.
        if (end == token.c_str() || *end != '\0' || token[0] == '-')
            fatal("parameter %s list entry '%s' is not an unsigned "
                  "integer",
                  key.c_str(), token.c_str());
        out.push_back(v);
    }
    return out;
}

std::vector<std::string>
ParamSet::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[k, v] : values_)
        out.push_back(k);
    return out;
}

void
ParamSet::requireKnown(const std::vector<std::string> &known) const
{
    if (!positional_.empty())
        fatal("unexpected argument '%s': all knobs are key=value",
              positional_.front().c_str());
    for (const auto &kv : values_) {
        if (std::find(known.begin(), known.end(), kv.first) == known.end())
            fatal("unknown parameter: %s", kv.first.c_str());
    }
}

} // namespace mithril
