#include "registry/registry.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace mithril::registry
{

std::string
paramTypeName(ParamDesc::Type type)
{
    switch (type) {
      case ParamDesc::Type::Uint:   return "uint";
      case ParamDesc::Type::Double: return "double";
      case ParamDesc::Type::Bool:   return "bool";
      case ParamDesc::Type::String: return "string";
    }
    return "?";
}

namespace
{

std::string
formatBound(double value)
{
    char buf[32];
    if (value == static_cast<double>(static_cast<long long>(value))) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
    } else {
        std::snprintf(buf, sizeof(buf), "%g", value);
    }
    return buf;
}

} // namespace

std::string
paramRangeText(const ParamDesc &desc)
{
    if (desc.type != ParamDesc::Type::Uint &&
        desc.type != ParamDesc::Type::Double)
        return "";
    return "[" + formatBound(desc.min) + ", " +
           formatBound(desc.max) + "]";
}

std::string
joinSorted(std::vector<std::string> names)
{
    std::sort(names.begin(), names.end());
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

void
checkParam(const std::string &owner, const ParamDesc &desc,
           const ParamSet &params)
{
    if (!params.has(desc.key))
        return;
    const std::string raw = params.getString(desc.key);
    double value = 0.0;
    switch (desc.type) {
      case ParamDesc::Type::String:
        return;
      case ParamDesc::Type::Bool: {
        // Reuse ParamSet's boolean spellings without dying on junk.
        if (raw != "0" && raw != "1" && raw != "true" &&
            raw != "false" && raw != "yes" && raw != "no" &&
            raw != "on" && raw != "off") {
            throw SpecError(owner + " parameter " + desc.key + "=" +
                            raw + " is not a boolean");
        }
        return;
      }
      case ParamDesc::Type::Uint: {
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(raw.c_str(), &end, 0);
        if (end == raw.c_str() || *end != '\0' ||
            (!raw.empty() && raw[0] == '-')) {
            throw SpecError(owner + " parameter " + desc.key + "=" +
                            raw + " is not an unsigned integer");
        }
        value = static_cast<double>(v);
        break;
      }
      case ParamDesc::Type::Double: {
        char *end = nullptr;
        value = std::strtod(raw.c_str(), &end);
        if (end == raw.c_str() || *end != '\0') {
            throw SpecError(owner + " parameter " + desc.key + "=" +
                            raw + " is not a number");
        }
        break;
      }
    }
    // Written so that NaN, which compares false with everything, fails.
    if (!(value >= desc.min && value <= desc.max)) {
        throw SpecError(owner + " parameter " + desc.key + "=" + raw +
                        " is out of range " + paramRangeText(desc));
    }
}

} // namespace mithril::registry
