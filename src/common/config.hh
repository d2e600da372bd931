/**
 * @file
 * Simple string key/value parameter set with typed accessors, used to
 * configure experiments and example binaries from the command line.
 */

#ifndef MITHRIL_COMMON_CONFIG_HH
#define MITHRIL_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mithril
{

/**
 * A flat parameter dictionary. Accessors return the stored value parsed
 * to the requested type or the provided default when the key is absent;
 * a malformed value is a fatal (user) error.
 */
class ParamSet
{
  public:
    ParamSet() = default;

    /** Parse "key=value" tokens (e.g. CLI arguments). Unrecognized
     *  tokens without '=' are collected as positional arguments.
     *  A duplicated key is a fatal (user) error — the second value
     *  must not silently win. */
    static ParamSet fromArgs(int argc, const char *const *argv);

    /** As fromArgs, over an already-split token list. */
    static ParamSet fromTokens(const std::vector<std::string> &tokens);

    /** As fromArgs, over a whitespace-separated "k=v k=v" string —
     *  the inverse of ExperimentSpec::describe(). */
    static ParamSet fromString(const std::string &text);

    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t def = 0) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t def = 0) const;
    /** As getUint, but fatal when the value exceeds 32 bits instead
     *  of silently truncating at the use site. */
    std::uint32_t getUint32(const std::string &key,
                            std::uint32_t def = 0) const;
    double getDouble(const std::string &key, double def = 0.0) const;
    /** As getDouble, but fatal when the value falls outside the
     *  inclusive [min, max] range instead of letting a nonsensical
     *  knob propagate into a run. */
    double getDoubleIn(const std::string &key, double def, double min,
                       double max) const;
    bool getBool(const std::string &key, bool def = false) const;

    /** Comma-separated list of trimmed tokens; empty/missing value
     *  yields an empty vector. */
    std::vector<std::string>
    getStringList(const std::string &key) const;

    /** Comma-separated list of unsigned integers; a malformed entry
     *  is a fatal (user) error. */
    std::vector<std::uint64_t>
    getUintList(const std::string &key) const;

    const std::vector<std::string> &positional() const { return positional_; }

    /** Fatal (user) error on any positional token or any key not in
     *  `known`: an argument nobody parses must not run silently. */
    void requireKnown(const std::vector<std::string> &known) const;

    /** All keys in order, for help/diagnostic output. */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace mithril

#endif // MITHRIL_COMMON_CONFIG_HH
