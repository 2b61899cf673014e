#include "analysis/diagnostic.h"

#include <algorithm>
#include <sstream>

#include "util/json.h"

namespace amnesiac {

std::string_view
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:    return "note";
      case Severity::Warning: return "warning";
      case Severity::Error:   return "error";
    }
    return "?";
}

Diagnostic &
Diagnostic::at(std::uint32_t where)
{
    pc = where;
    return *this;
}

Diagnostic &
Diagnostic::inSlice(std::uint32_t slice)
{
    sliceId = slice;
    return *this;
}

Diagnostic &
Diagnostic::note(std::string text)
{
    notes.push_back(std::move(text));
    return *this;
}

std::string
Diagnostic::render() const
{
    std::ostringstream os;
    os << id << " " << severityName(severity);
    if (pc)
        os << " @" << *pc;
    if (sliceId)
        os << " (slice " << *sliceId << ")";
    os << ": " << message;
    return os.str();
}

Diagnostic &
AnalysisReport::add(std::string id, Severity severity, std::string message)
{
    Diagnostic d;
    d.id = std::move(id);
    d.severity = severity;
    d.message = std::move(message);
    diagnostics.push_back(std::move(d));
    return diagnostics.back();
}

std::size_t
AnalysisReport::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        n += d.severity == severity ? 1 : 0;
    return n;
}

bool
AnalysisReport::gates(bool warnings_as_errors) const
{
    return hasErrors() || (warnings_as_errors && warningCount() > 0);
}

void
AnalysisReport::sort()
{
    std::stable_sort(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         std::uint64_t pa =
                             a.pc ? *a.pc : ~std::uint64_t{0};
                         std::uint64_t pb =
                             b.pc ? *b.pc : ~std::uint64_t{0};
                         if (pa != pb)
                             return pa < pb;
                         if (a.id != b.id)
                             return a.id < b.id;
                         return a.message < b.message;
                     });
}

std::string
AnalysisReport::renderText() const
{
    std::ostringstream os;
    for (const Diagnostic &d : diagnostics) {
        os << d.render() << "\n";
        for (const std::string &note : d.notes)
            os << "    note: " << note << "\n";
    }
    if (diagnostics.empty())
        os << "clean\n";
    else
        os << errorCount() << " error(s), " << warningCount()
           << " warning(s), " << count(Severity::Note) << " note(s)\n";
    return os.str();
}

const std::vector<DiagInfo> &
diagnosticRegistry()
{
    using S = Severity;
    static const std::vector<DiagInfo> registry = {
        {"AMN001", "structure", S::Error, "program contains no instructions",
         "An empty program cannot execute; every other check assumes at "
         "least one instruction."},
        {"AMN002", "structure", S::Error, "codeEnd is beyond the program",
         "The main/slice boundary indexes past the instruction stream; "
         "positional analyses would read out of range."},
        {"AMN003", "structure", S::Error, "register encoding out of range",
         "A register id >= 32 faults the register file. Hist-sourced "
         "slice operands are exempt: the paper encodes them as an "
         "invalid id (3.5)."},
        {"AMN004", "structure", S::Error, "duplicate slice id",
         "RCMP/REC cross-references resolve by id; duplicates make "
         "resolution ambiguous."},
        {"AMN101", "purity", S::Error, "non-sliceable opcode in slice body",
         "Slice bodies must be side-effect-free straight-line value "
         "producers: a recomputation may abort mid-slice (3.4)."},
        {"AMN102", "purity", S::Error, "slice operand read before defined",
         "Slices are emitted in topological order; the renamer has no "
         "binding for the register yet."},
        {"AMN201", "coverage", S::Error, "Hist leaf without covering REC",
         "A Hist-sourced operand with no REC aimed at it reads garbage "
         "at recomputation time."},
        {"AMN202", "coverage", S::Warning, "dead REC",
         "The checkpointed leaf has no Hist-sourced operand; the "
         "checkpoint burns a store-class EPI and a Hist entry nothing "
         "reads."},
        {"AMN203", "coverage", S::Error, "REC cross-reference broken",
         "The REC's leaf address or slice id does not resolve to the "
         "slice it claims to checkpoint; a failed REC poisons the slice "
         "it names."},
        {"AMN301", "capacity", S::Warning, "slice exceeds SFile capacity",
         "Worst-case SFile occupancy (body length) exceeds the "
         "configuration; every traversal of this slice aborts."},
        {"AMN302", "capacity", S::Warning, "program exceeds Hist capacity",
         "Hist entries are keyed by leaf address and never evicted; "
         "overflowing RECs fail and poison their slices (3.5)."},
        {"AMN401", "termination", S::Error, "slice block not sealed by RTN",
         "A recomputation that runs off the end of its block executes "
         "the next slice's body."},
        {"AMN402", "termination", S::Error,
         "control flow crosses the main/slice boundary",
         "Slices are entered only through RCMP and left only through "
         "RTN."},
        {"AMN403", "termination", S::Warning, "unreachable main code",
         "No path from entry executes these instructions."},
        {"AMN404", "termination", S::Error, "no reachable HALT",
         "Execution cannot terminate cleanly."},
        {"AMN405", "termination", S::Warning, "slice never referenced",
         "No RCMP diverts into this slice; it is dead code plus dead "
         "metadata."},
        {"AMN501", "integrity", S::Error, "branch target out of range",
         "The target indexes outside the instruction stream."},
        {"AMN502", "integrity", S::Error, "RCMP cross-reference broken",
         "The RCMP's slice id, target, or recorded rcmpPc does not "
         "resolve consistently."},
        {"AMN503", "integrity", S::Error, "slice region layout broken",
         "The slice region must be exactly the concatenation of the "
         "metadata blocks (gap, overlap, or out-of-bounds block)."},
        {"AMN504", "integrity", S::Error, "slice metadata contradicts body",
         "Recorded leaf/Hist statistics differ from what the body "
         "actually contains."},
        {"AMN601", "cost", S::Warning, "recomputation can never pay off",
         "Estimated recomputation energy exceeds even a memory-resident "
         "load; no runtime policy can fire this slice profitably."},
        {"AMN602", "cost", S::Warning, "unprofitable selection recorded",
         "Compiler metadata records Erc >= Eld; expected only for "
         "oracle slice sets (5.1)."},
        {"AMN701", "valuerange", S::Error, "access provably out of range",
         "On every feasible path the computed address faults the "
         "machine (beyond data memory, or misaligned)."},
        {"AMN702", "valuerange", S::Warning, "provably dead RCMP guard",
         "The CFG reaches this RCMP but interval analysis proves no "
         "feasible execution does; its slice and checkpoints are "
         "retained state that can never pay off."},
        {"AMN703", "valuerange", S::Note, "constant-input slice",
         "No Hist operands and every Live input is a known singleton at "
         "the RCMP: the slice recomputes a compile-time constant."},
        {"AMN801", "checkpoint", S::Warning, "checkpoint budget exceeded",
         "The slice's Hist snapshot state (16 bytes per Hist operand) "
         "exceeds the configured checkpoint budget; the amnesic premise "
         "is that recomputation metadata stays small (3.4)."},
        {"AMN802", "checkpoint", S::Warning, "recompute depth exceeded",
         "The slice body is longer than the configured recompute-depth "
         "bound (IBuff sizing, abort-window length)."},
        {"AMN803", "checkpoint", S::Note, "multi-writer aliasing hazard",
         "Two or more reachable stores may alias the RCMP's target "
         "region; a second writer between checkpoint and reload would "
         "make the recomputed value stale."},
    };
    return registry;
}

const DiagInfo *
findDiagInfo(std::string_view id)
{
    for (const DiagInfo &info : diagnosticRegistry())
        if (info.id == id)
            return &info;
    return nullptr;
}

std::string
AnalysisReport::renderJson() const
{
    std::string out;
    json::Writer w(out);
    w.beginObject();
    w.key("program").string(programName);
    w.key("errors").integer(errorCount());
    w.key("warnings").integer(warningCount());
    w.key("notes").integer(count(Severity::Note));
    w.key("diagnostics").beginArray();
    for (const Diagnostic &d : diagnostics) {
        w.beginObject();
        w.key("id").string(d.id);
        w.key("severity").string(severityName(d.severity));
        if (d.pc)
            w.key("pc").integer(*d.pc);
        if (d.sliceId)
            w.key("slice").integer(*d.sliceId);
        w.key("message").string(d.message);
        w.key("notes").beginArray();
        for (const std::string &note : d.notes)
            w.string(note);
        w.endArray().endObject();
    }
    w.endArray().endObject();
    return out;
}

std::string
renderSarif(const std::vector<AnalysisReport> &reports)
{
    std::string out;
    json::Writer w(out);
    // SARIF's one-field wrapper objects: "outer":{"inner":"value"}.
    auto wrapped = [&](std::string_view outer, std::string_view inner,
                       std::string_view value) {
        w.key(outer).beginObject().key(inner).string(value).endObject();
    };
    w.beginObject();
    w.key("$schema").string("https://json.schemastore.org/sarif-2.1.0.json");
    w.key("version").string("2.1.0");
    w.key("runs").beginArray().beginObject();
    w.key("tool").beginObject().key("driver").beginObject();
    w.key("name").string("amnesiac-lint");
    w.key("rules").beginArray();
    for (const DiagInfo &info : diagnosticRegistry()) {
        w.beginObject().key("id").string(info.id);
        wrapped("shortDescription", "text", info.title);
        wrapped("fullDescription", "text", info.detail);
        wrapped("properties", "pass", info.pass);
        wrapped("defaultConfiguration", "level",
                severityName(info.severity));
        w.endObject();
    }
    w.endArray().endObject().endObject();
    w.key("results").beginArray();
    for (const AnalysisReport &report : reports) {
        for (const Diagnostic &d : report.diagnostics) {
            w.beginObject().key("ruleId").string(d.id);
            w.key("level").string(severityName(d.severity));
            wrapped("message", "text", d.message);
            w.key("locations").beginArray().beginObject();
            w.key("physicalLocation").beginObject();
            wrapped("artifactLocation", "uri", report.programName);
            if (d.pc)
                w.key("region").beginObject().key("startLine")
                    .integer(*d.pc + std::uint64_t{1}).endObject();
            w.endObject().endObject().endArray().endObject();
        }
    }
    w.endArray().endObject().endArray().endObject();
    return out;
}

}  // namespace amnesiac
