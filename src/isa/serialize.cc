#include "isa/serialize.h"

#include <cstring>
#include <fstream>

#include "util/bytes.h"
#include "util/logging.h"

namespace amnesiac {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'N', 'B'};

void
putInstruction(ByteWriter &w, const Instruction &instr)
{
    w.put(static_cast<std::uint8_t>(instr.op));
    w.put(instr.rd);
    w.put(instr.rs1);
    w.put(instr.rs2);
    w.put(instr.imm);
    w.put(instr.target);
    w.put(instr.sliceId);
    w.put(instr.leafAddr);
    w.put(static_cast<std::uint8_t>(instr.src1));
    w.put(static_cast<std::uint8_t>(instr.src2));
}

bool
getInstruction(ByteReader &r, Instruction &instr)
{
    std::uint8_t op = r.get<std::uint8_t>();
    if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
        return false;
    instr.op = static_cast<Opcode>(op);
    instr.rd = r.get<Reg>();
    instr.rs1 = r.get<Reg>();
    instr.rs2 = r.get<Reg>();
    instr.imm = r.get<std::int64_t>();
    instr.target = r.get<std::uint32_t>();
    instr.sliceId = r.get<std::uint32_t>();
    instr.leafAddr = r.get<std::uint32_t>();
    std::uint8_t src1 = r.get<std::uint8_t>();
    std::uint8_t src2 = r.get<std::uint8_t>();
    if (src1 > static_cast<std::uint8_t>(OperandSource::Live) ||
        src2 > static_cast<std::uint8_t>(OperandSource::Live))
        return false;
    instr.src1 = static_cast<OperandSource>(src1);
    instr.src2 = static_cast<OperandSource>(src2);
    return !r.failed();
}

}  // namespace

std::vector<std::uint8_t>
serializeProgram(const Program &program)
{
    ByteWriter w;
    w.putBytes(kMagic, sizeof(kMagic));
    w.put(kProgramFormatVersion);
    w.put(program.codeEnd);
    w.put(static_cast<std::uint64_t>(program.code.size()));
    for (const Instruction &instr : program.code)
        putInstruction(w, instr);
    w.put(static_cast<std::uint64_t>(program.dataImage.size()));
    for (std::uint64_t word : program.dataImage)
        w.put(word);
    w.put(static_cast<std::uint64_t>(program.slices.size()));
    for (const RSliceMeta &meta : program.slices) {
        w.put(meta.id);
        w.put(meta.entry);
        w.put(meta.length);
        w.put(meta.rcmpPc);
        w.put(meta.height);
        w.put(meta.leafCount);
        w.put(meta.histLeafCount);
        w.put(meta.histOperandCount);
        w.put(meta.ercEstimate);
        w.put(meta.eldEstimate);
    }
    w.put(static_cast<std::uint32_t>(program.name.size()));
    w.putBytes(program.name.data(), program.name.size());
    w.putChecksum();
    return w.take();
}

std::optional<Program>
deserializeProgram(const std::vector<std::uint8_t> &bytes,
                   std::string *error)
{
    auto fail = [error](const char *why) -> std::optional<Program> {
        if (error)
            *error = why;
        return std::nullopt;
    };

    if (bytes.size() < sizeof(kMagic) + sizeof(std::uint64_t))
        return fail("buffer too small");
    if (!checksumMatches(bytes))
        return fail("checksum mismatch");

    ByteReader r(bytes);
    char magic[4];
    if (!r.getBytes(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return fail("bad magic");
    if (r.get<std::uint32_t>() != kProgramFormatVersion)
        return fail("unsupported version");

    Program program;
    program.codeEnd = r.get<std::uint32_t>();
    std::uint64_t code_size = r.get<std::uint64_t>();
    if (r.failed() || code_size > (1ull << 24))
        return fail("implausible code size");
    program.code.resize(code_size);
    for (Instruction &instr : program.code)
        if (!getInstruction(r, instr))
            return fail("malformed instruction");
    std::uint64_t data_words = r.get<std::uint64_t>();
    if (r.failed() || data_words > (1ull << 28))
        return fail("implausible data size");
    program.dataImage.resize(data_words);
    for (std::uint64_t &word : program.dataImage)
        word = r.get<std::uint64_t>();
    std::uint64_t slice_count = r.get<std::uint64_t>();
    if (r.failed() || slice_count > (1ull << 20))
        return fail("implausible slice count");
    program.slices.resize(slice_count);
    for (RSliceMeta &meta : program.slices) {
        meta.id = r.get<std::uint32_t>();
        meta.entry = r.get<std::uint32_t>();
        meta.length = r.get<std::uint32_t>();
        meta.rcmpPc = r.get<std::uint32_t>();
        meta.height = r.get<std::uint32_t>();
        meta.leafCount = r.get<std::uint32_t>();
        meta.histLeafCount = r.get<std::uint32_t>();
        meta.histOperandCount = r.get<std::uint32_t>();
        meta.ercEstimate = r.get<double>();
        meta.eldEstimate = r.get<double>();
    }
    std::uint32_t name_len = r.get<std::uint32_t>();
    if (r.failed() || name_len > (1u << 16))
        return fail("implausible name length");
    program.name.resize(name_len);
    if (name_len > 0 && !r.getBytes(program.name.data(), name_len))
        return fail("truncated name");
    if (r.failed() || program.codeEnd > program.code.size())
        return fail("inconsistent code bounds");
    return program;
}

void
saveProgram(const Program &program, const std::string &path)
{
    std::vector<std::uint8_t> bytes = serializeProgram(program);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        AMNESIAC_FATAL("cannot open '" + path + "' for writing");
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        AMNESIAC_FATAL("write to '" + path + "' failed");
}

std::optional<Program>
loadProgram(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return deserializeProgram(bytes, error);
}

}  // namespace amnesiac
