#include "testing/repro.h"

#include <cctype>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <sstream>

namespace amnesiac {

namespace {

// ---- rendering -------------------------------------------------------

class FlatWriter
{
  public:
    void put(const std::string &key, std::uint64_t value)
    {
        line(key) << value;
    }

    void put(const std::string &key, double value)
    {
        // max_digits10 keeps the round trip bit-exact for any double
        // the generator can draw.
        line(key) << std::setprecision(17) << value;
    }

    void put(const std::string &key, bool value)
    {
        line(key) << (value ? "true" : "false");
    }

    void put(const std::string &key, std::string_view value)
    {
        line(key) << '"' << value << '"';
    }

    std::string finish()
    {
        _os << "\n}\n";
        return _os.str();
    }

  private:
    std::ostream &line(const std::string &key)
    {
        _os << (_first ? "{\n" : ",\n");
        _first = false;
        _os << "  \"" << key << "\": ";
        return _os;
    }

    std::ostringstream _os;
    bool _first = true;
};

std::string
indexed(const char *prefix, std::size_t i, const char *field)
{
    std::ostringstream os;
    os << prefix << i << "." << field;
    return os.str();
}

// ---- parsing ---------------------------------------------------------

/** Scans one flat JSON object into a key -> raw-token map. */
class FlatScanner
{
  public:
    explicit FlatScanner(const std::string &text) : _text(text) {}

    bool scan(std::map<std::string, std::string> &out, std::string &error)
    {
        skipSpace();
        if (!eat('{')) {
            error = "expected '{'";
            return false;
        }
        skipSpace();
        if (eat('}'))
            return true;
        for (;;) {
            std::string key, value;
            if (!parseString(key)) {
                error = "expected a string key";
                return false;
            }
            skipSpace();
            if (!eat(':')) {
                error = "expected ':' after \"" + key + "\"";
                return false;
            }
            skipSpace();
            if (!parseValue(value)) {
                error = "bad value for \"" + key + "\"";
                return false;
            }
            out[key] = value;
            skipSpace();
            if (eat(',')) {
                skipSpace();
                continue;
            }
            if (eat('}'))
                return true;
            error = "expected ',' or '}' after \"" + key + "\"";
            return false;
        }
    }

  private:
    void skipSpace()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    bool eat(char c)
    {
        if (_pos < _text.size() && _text[_pos] == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    bool parseString(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (_pos < _text.size() && _text[_pos] != '"') {
            // The format never emits escapes; reject rather than
            // mis-parse a hand-edited file that uses them.
            if (_text[_pos] == '\\')
                return false;
            out.push_back(_text[_pos++]);
        }
        return eat('"');
    }

    bool parseValue(std::string &out)
    {
        if (_pos < _text.size() && _text[_pos] == '"')
            return parseString(out);
        std::size_t start = _pos;
        while (_pos < _text.size() && _text[_pos] != ',' &&
               _text[_pos] != '}' &&
               !std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
        out = _text.substr(start, _pos - start);
        return !out.empty();
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

/** Typed getters over the scanned map; absent keys keep defaults. */
class FlatReader
{
  public:
    explicit FlatReader(std::map<std::string, std::string> map)
        : _map(std::move(map))
    {
    }

    template <typename T>
    void get(const std::string &key, T &out) const
    {
        auto it = _map.find(key);
        if (it == _map.end())
            return;
        assign(it->second, out);
    }

    bool has(const std::string &key) const { return _map.count(key) > 0; }

  private:
    static void assign(const std::string &raw, std::uint64_t &out)
    {
        out = std::strtoull(raw.c_str(), nullptr, 10);
    }

    static void assign(const std::string &raw, std::uint32_t &out)
    {
        out = static_cast<std::uint32_t>(
            std::strtoull(raw.c_str(), nullptr, 10));
    }

    static void assign(const std::string &raw, double &out)
    {
        out = std::strtod(raw.c_str(), nullptr);
    }

    static void assign(const std::string &raw, bool &out)
    {
        out = raw == "true";
    }

    static void assign(const std::string &raw, std::string &out)
    {
        out = raw;
    }

    std::map<std::string, std::string> _map;
};

}  // namespace

std::string
renderRepro(const GenCase &c)
{
    FlatWriter w;
    w.put("format", std::string_view("amnesiac-fuzz-case-v1"));
    w.put("masterSeed", c.masterSeed);
    w.put("index", c.index);
    w.put("runLimit", c.runLimit);

    w.put("spec.seed", c.spec.seed);
    w.put("spec.untrackedLoadsPerIter",
          std::uint64_t{c.spec.untrackedLoadsPerIter});
    w.put("spec.untrackedLogWords",
          std::uint64_t{c.spec.untrackedLogWords});
    w.put("spec.chaseLoadsPerIter",
          std::uint64_t{c.spec.chaseLoadsPerIter});
    w.put("spec.chaseLogWords", std::uint64_t{c.spec.chaseLogWords});
    w.put("spec.fillerAluPerIter",
          std::uint64_t{c.spec.fillerAluPerIter});
    w.put("spec.outStoreLogInterval",
          std::uint64_t{c.spec.outStoreLogInterval});
    w.put("spec.outLogWords", std::uint64_t{c.spec.outLogWords});
    w.put("spec.chainCount", std::uint64_t{c.spec.chains.size()});
    for (std::size_t i = 0; i < c.spec.chains.size(); ++i) {
        const ChainSpec &ch = c.spec.chains[i];
        w.put(indexed("spec.chain", i, "chainLen"),
              std::uint64_t{ch.chainLen});
        w.put(indexed("spec.chain", i, "nc"), ch.nc);
        w.put(indexed("spec.chain", i, "logWords"),
              std::uint64_t{ch.logWords});
        w.put(indexed("spec.chain", i, "hotLogWords"),
              std::uint64_t{ch.hotLogWords});
        w.put(indexed("spec.chain", i, "coldPercent"),
              std::uint64_t{ch.coldPercent});
        w.put(indexed("spec.chain", i, "vlShift"),
              std::uint64_t{ch.vlShift});
        w.put(indexed("spec.chain", i, "consumes"),
              std::uint64_t{ch.consumes});
        w.put(indexed("spec.chain", i, "neighborLoad"), ch.neighborLoad);
    }

    w.put("compiler.maxInstrs",
          std::uint64_t{c.compiler.builder.maxInstrs});
    w.put("compiler.maxHeight",
          std::uint64_t{c.compiler.builder.maxHeight});
    w.put("compiler.liveThreshold", c.compiler.builder.liveThreshold);
    w.put("compiler.budgetMargin", c.compiler.builder.budgetMargin);
    w.put("compiler.stabilityThreshold", c.compiler.stabilityThreshold);
    w.put("compiler.matchThreshold", c.compiler.matchThreshold);
    w.put("compiler.minSiteCount", c.compiler.minSiteCount);
    w.put("compiler.profitabilityMargin", c.compiler.profitabilityMargin);
    w.put("compiler.globalResidenceModel",
          c.compiler.globalResidenceModel);

    w.put("amnesic.sfileCapacity",
          std::uint64_t{c.amnesic.sfileCapacity});
    w.put("amnesic.histCapacity", std::uint64_t{c.amnesic.histCapacity});
    w.put("amnesic.ibuffCapacity",
          std::uint64_t{c.amnesic.ibuffCapacity});
    w.put("amnesic.shadowCheck", c.amnesic.shadowCheck);
    w.put("amnesic.decisionNonMemScale", c.amnesic.decisionNonMemScale);

    w.put("hierarchy.l1.sizeBytes", c.hierarchy.l1.sizeBytes);
    w.put("hierarchy.l1.ways", std::uint64_t{c.hierarchy.l1.ways});
    w.put("hierarchy.l1.lineBytes",
          std::uint64_t{c.hierarchy.l1.lineBytes});
    w.put("hierarchy.l2.sizeBytes", c.hierarchy.l2.sizeBytes);
    w.put("hierarchy.l2.ways", std::uint64_t{c.hierarchy.l2.ways});
    w.put("hierarchy.l2.lineBytes",
          std::uint64_t{c.hierarchy.l2.lineBytes});

    w.put("energy.nonMemScale", c.energy.nonMemScale);

    w.put("timing.backend", timingBackendName(c.timing.backend));
    w.put("timing.predictor", predictorKindName(c.timing.predictor));
    w.put("timing.predictorLogEntries",
          std::uint64_t{c.timing.predictorLogEntries});
    w.put("timing.loadUseStallCycles",
          std::uint64_t{c.timing.loadUseStallCycles});
    w.put("timing.mispredictPenaltyCycles",
          std::uint64_t{c.timing.mispredictPenaltyCycles});
    w.put("timing.jumpBubbleCycles",
          std::uint64_t{c.timing.jumpBubbleCycles});

    w.put("faultCount", std::uint64_t{c.faults.size()});
    for (std::size_t i = 0; i < c.faults.size(); ++i) {
        const FaultSpec &f = c.faults[i];
        w.put(indexed("fault", i, "kind"), faultKindName(f.kind));
        w.put(indexed("fault", i, "trigger"), f.trigger);
        w.put(indexed("fault", i, "mask"), f.mask);
        w.put(indexed("fault", i, "lane"), std::uint64_t{f.lane});
    }

    w.put("policyCount", std::uint64_t{c.policies.size()});
    for (std::size_t i = 0; i < c.policies.size(); ++i)
        w.put(indexed("policy", i, "name"), policyName(c.policies[i]));

    return w.finish();
}

bool
parseRepro(const std::string &text, GenCase &out, std::string &error)
{
    std::map<std::string, std::string> map;
    if (!FlatScanner(text).scan(map, error))
        return false;
    FlatReader r(std::move(map));

    std::string format;
    r.get("format", format);
    if (format != "amnesiac-fuzz-case-v1") {
        error = "unknown repro format \"" + format + "\"";
        return false;
    }

    out = GenCase{};
    r.get("masterSeed", out.masterSeed);
    r.get("index", out.index);
    r.get("runLimit", out.runLimit);

    r.get("spec.seed", out.spec.seed);
    r.get("spec.untrackedLoadsPerIter", out.spec.untrackedLoadsPerIter);
    r.get("spec.untrackedLogWords", out.spec.untrackedLogWords);
    r.get("spec.chaseLoadsPerIter", out.spec.chaseLoadsPerIter);
    r.get("spec.chaseLogWords", out.spec.chaseLogWords);
    r.get("spec.fillerAluPerIter", out.spec.fillerAluPerIter);
    r.get("spec.outStoreLogInterval", out.spec.outStoreLogInterval);
    r.get("spec.outLogWords", out.spec.outLogWords);
    std::uint64_t chains = 0;
    r.get("spec.chainCount", chains);
    for (std::size_t i = 0; i < chains; ++i) {
        ChainSpec ch;
        r.get(indexed("spec.chain", i, "chainLen"), ch.chainLen);
        r.get(indexed("spec.chain", i, "nc"), ch.nc);
        r.get(indexed("spec.chain", i, "logWords"), ch.logWords);
        r.get(indexed("spec.chain", i, "hotLogWords"), ch.hotLogWords);
        r.get(indexed("spec.chain", i, "coldPercent"), ch.coldPercent);
        r.get(indexed("spec.chain", i, "vlShift"), ch.vlShift);
        r.get(indexed("spec.chain", i, "consumes"), ch.consumes);
        r.get(indexed("spec.chain", i, "neighborLoad"), ch.neighborLoad);
        out.spec.chains.push_back(ch);
    }
    out.spec.name = out.label();

    r.get("compiler.maxInstrs", out.compiler.builder.maxInstrs);
    r.get("compiler.maxHeight", out.compiler.builder.maxHeight);
    r.get("compiler.liveThreshold", out.compiler.builder.liveThreshold);
    r.get("compiler.budgetMargin", out.compiler.builder.budgetMargin);
    r.get("compiler.stabilityThreshold", out.compiler.stabilityThreshold);
    r.get("compiler.matchThreshold", out.compiler.matchThreshold);
    r.get("compiler.minSiteCount", out.compiler.minSiteCount);
    r.get("compiler.profitabilityMargin",
          out.compiler.profitabilityMargin);
    r.get("compiler.globalResidenceModel",
          out.compiler.globalResidenceModel);

    r.get("amnesic.sfileCapacity", out.amnesic.sfileCapacity);
    r.get("amnesic.histCapacity", out.amnesic.histCapacity);
    r.get("amnesic.ibuffCapacity", out.amnesic.ibuffCapacity);
    r.get("amnesic.shadowCheck", out.amnesic.shadowCheck);
    r.get("amnesic.decisionNonMemScale",
          out.amnesic.decisionNonMemScale);

    r.get("hierarchy.l1.sizeBytes", out.hierarchy.l1.sizeBytes);
    r.get("hierarchy.l1.ways", out.hierarchy.l1.ways);
    r.get("hierarchy.l1.lineBytes", out.hierarchy.l1.lineBytes);
    r.get("hierarchy.l2.sizeBytes", out.hierarchy.l2.sizeBytes);
    r.get("hierarchy.l2.ways", out.hierarchy.l2.ways);
    r.get("hierarchy.l2.lineBytes", out.hierarchy.l2.lineBytes);

    r.get("energy.nonMemScale", out.energy.nonMemScale);

    // Pre-timing repro files simply lack these keys and keep the scalar
    // defaults; a present-but-unknown name is a hand-edit error.
    std::string backend_name, predictor_name;
    r.get("timing.backend", backend_name);
    if (!backend_name.empty() &&
        !parseTimingBackend(backend_name, out.timing.backend)) {
        error = "unknown timing backend \"" + backend_name + "\"";
        return false;
    }
    r.get("timing.predictor", predictor_name);
    if (!predictor_name.empty() &&
        !parsePredictorKind(predictor_name, out.timing.predictor)) {
        error = "unknown predictor \"" + predictor_name + "\"";
        return false;
    }
    r.get("timing.predictorLogEntries", out.timing.predictorLogEntries);
    r.get("timing.loadUseStallCycles", out.timing.loadUseStallCycles);
    r.get("timing.mispredictPenaltyCycles",
          out.timing.mispredictPenaltyCycles);
    r.get("timing.jumpBubbleCycles", out.timing.jumpBubbleCycles);

    std::uint64_t faults = 0;
    r.get("faultCount", faults);
    for (std::size_t i = 0; i < faults; ++i) {
        FaultSpec f;
        std::string kind;
        r.get(indexed("fault", i, "kind"), kind);
        if (!parseFaultKind(kind, f.kind)) {
            error = "unknown fault kind \"" + kind + "\"";
            return false;
        }
        r.get(indexed("fault", i, "trigger"), f.trigger);
        r.get(indexed("fault", i, "mask"), f.mask);
        r.get(indexed("fault", i, "lane"), f.lane);
        out.faults.push_back(f);
    }

    std::uint64_t policies = 0;
    r.get("policyCount", policies);
    for (std::size_t i = 0; i < policies; ++i) {
        std::string name;
        Policy p;
        r.get(indexed("policy", i, "name"), name);
        if (!parsePolicy(name, p)) {
            error = "unknown policy \"" + name + "\"";
            return false;
        }
        out.policies.push_back(p);
    }
    if (out.policies.empty())
        out.policies.assign(std::begin(kAllPolicies),
                            std::end(kAllPolicies));
    if (out.spec.chains.empty()) {
        error = "repro has no chains";
        return false;
    }
    return true;
}

}  // namespace amnesiac
