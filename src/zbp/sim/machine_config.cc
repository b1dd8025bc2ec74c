#include "zbp/sim/machine_config.hh"

#include <cstdint>
#include <fstream>
#include <sstream>

namespace zbp::sim
{

namespace
{

bool
parse(const std::string &v, std::uint32_t &out)
{
    try {
        std::size_t pos = 0;
        const unsigned long n = std::stoul(v, &pos, 0);
        if (pos != v.size() || n > 0xFFFF'FFFFul)
            return false;
        out = static_cast<std::uint32_t>(n);
        return true;
    } catch (...) {
        return false;
    }
}

bool
parse(const std::string &v, double &out)
{
    try {
        std::size_t pos = 0;
        out = std::stod(v, &pos);
        return pos == v.size();
    } catch (...) {
        return false;
    }
}

bool
parse(const std::string &v, bool &out)
{
    if (v == "true" || v == "1" || v == "yes" || v == "on") {
        out = true;
        return true;
    }
    if (v == "false" || v == "0" || v == "no" || v == "off") {
        out = false;
        return true;
    }
    return false;
}

bool
parse(const std::string &v, preload::ArbPolicy &out)
{
    if (v != "fcfs" && v != "tdm")
        return false;
    out = v == "tdm" ? preload::ArbPolicy::kTdm : preload::ArbPolicy::kFcfs;
    return true;
}

/** Parses one "key = value" directive into the field fields() names
 * @p key, with the parser its type selects. */
struct Setter
{
    const std::string &key;
    const std::string &value;
    bool found = false;
    bool ok = false;

    template <class T>
    void
    operator()(const char *k, T &field, core::FieldRule = {})
    {
        if (!found && key == k) {
            found = true;
            ok = parse(value, field);
        }
    }
};

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

} // namespace

ParseResult
applyConfigText(const std::string &text, core::MachineParams &params)
{
    std::istringstream is(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        line = trim(line);
        if (line.empty())
            continue;

        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return {false, "expected 'key = value': " + line, lineno};
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        Setter set{key, value};
        core::MachineParams::fields(params, set);
        if (!set.found)
            return {false, "unknown key '" + key + "'", lineno};
        if (!set.ok)
            return {false,
                    "bad value '" + value + "' for key '" + key + "'",
                    lineno};
    }
    return {};
}

ParseResult
applyConfigFile(const std::string &path, core::MachineParams &params)
{
    std::ifstream is(path);
    if (!is)
        return {false, "cannot open '" + path + "'", 0};
    std::ostringstream buf;
    buf << is.rdbuf();
    return applyConfigText(buf.str(), params);
}

std::string
configKeyList()
{
    std::string out;
    auto add = [&out](const char *key, const auto &, core::FieldRule = {}) {
        out += key;
        out += '\n';
    };
    core::MachineParams p;
    core::MachineParams::fields(p, add);
    return out;
}

} // namespace zbp::sim
