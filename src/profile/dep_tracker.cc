#include "profile/dep_tracker.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>

namespace amnesiac {

DepTracker::PagePtr
DepTracker::mapPage()
{
    void *memory = mmap(nullptr, sizeof(Page), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (memory == MAP_FAILED)
        throw std::bad_alloc();
    return PagePtr(new (memory) Page);
}

void
DepTracker::PageUnmap::operator()(Page *page) const
{
    page->~Page();
    munmap(page, sizeof(Page));
}

NodeId
DepTracker::alloc()
{
    NodeId id = _freeHead;
    if (id != kNoNode) {
        _freeHead = slot(id).in1;
        --_freeCount;
    } else {
        AMNESIAC_ASSERT(_size != kNoNode, "node arena exhausted");
        id = _size++;
        if ((id & (kPageNodes - 1)) == 0)
            _pages.push_back(mapPage());
    }
    ProducerNode &node = slot(id);
    node = ProducerNode{};
    node.refs = 1;
    return id;
}

void
DepTracker::unref(NodeId id)
{
    AMNESIAC_ASSERT(id < _size && slot(id).refs > 0, "bad unref");
    ProducerNode &top = slot(id);
    if (top.refs > 1) {
        // Not the last reference: nothing is recycled.
        --top.refs;
        return;
    }
    _reclaim.push_back(id);
    while (!_reclaim.empty()) {
        NodeId cur = _reclaim.back();
        _reclaim.pop_back();
        AMNESIAC_ASSERT(cur < _size && slot(cur).refs > 0, "bad unref");
        ProducerNode &n = slot(cur);
        if (--n.refs != 0)
            continue;
        if (n.in1 != kNoNode)
            _reclaim.push_back(n.in1);
        if (n.in2 != kNoNode)
            _reclaim.push_back(n.in2);
        n.in1 = _freeHead;
        n.in2 = kNoNode;
        _freeHead = cur;
        ++_freeCount;
    }
}

void
DepTracker::onAlu(std::uint32_t pc, const Instruction &instr,
                  std::uint64_t result)
{
    AMNESIAC_ASSERT(isSliceable(instr.op), "onAlu: non-sliceable opcode");
    int fan_in = numSources(instr.op);
    // Children at the depth cap are replaced by value-preserving stubs:
    // this bounds graph depth and memory while keeping Live cuts and
    // tree signatures above the cap byte-identical to the untruncated
    // graph. No buildable slice is anywhere near kMaxChainDepth tall.
    // Each link hands the caller ownership of one reference (a stub is
    // born owned; a kept child gets an extra ref).
    auto link = [&](NodeId child) -> NodeId {
        if (child == kNoNode)
            return kNoNode;
        const ProducerNode &c = slot(child);
        bool self_chain = c.kind == ProducerNode::Kind::Alu && c.pc == pc;
        if (c.depth >= kMaxChainDepth ||
            (self_chain && c.depth >= kSelfChainDepth)) {
            NodeId sid = alloc();
            ProducerNode &stub = slot(sid);
            stub = c;
            stub.kind = ProducerNode::Kind::Truncated;
            stub.in1 = kNoNode;
            stub.in2 = kNoNode;
            stub.depth = 1;
            stub.refs = 1;
            return sid;
        }
        ref(child);
        return child;
    };
    NodeId in1 = fan_in >= 1 ? link(_regs[instr.rs1]) : kNoNode;
    NodeId in2 = fan_in >= 2 ? link(_regs[instr.rs2]) : kNoNode;
    std::uint16_t depth = 1;
    if (in1 != kNoNode)
        depth = std::max<std::uint16_t>(depth, slot(in1).depth + 1);
    if (in2 != kNoNode)
        depth = std::max<std::uint16_t>(depth, slot(in2).depth + 1);

    NodeId nid = alloc();
    ProducerNode &node = slot(nid);
    node.kind = ProducerNode::Kind::Alu;
    node.pc = pc;
    node.op = instr.op;
    node.in1 = in1;
    node.in2 = in2;
    node.depth = depth;
    node.seq = nextSeq();
    node.value = result;
    // Assign before releasing: with rd == rs1 the old producer is still
    // referenced through the new node's link and must survive.
    setReg(instr.rd, nid);
}

void
DepTracker::onLoad(std::uint32_t pc, const Instruction &instr,
                   std::uint64_t addr, std::uint64_t value)
{
    NodeId stored = memProducer(addr);
    if (stored != kNoNode) {
        // The register now holds the stored value: same production.
        ref(stored);
        setReg(instr.rd, stored);
        return;
    }
    NodeId nid = alloc();
    ProducerNode &node = slot(nid);
    node.kind = ProducerNode::Kind::InputLoad;
    node.pc = pc;
    node.op = instr.op;
    node.seq = nextSeq();
    node.value = value;
    setReg(instr.rd, nid);
}

void
DepTracker::onOpaque(Reg rd)
{
    if (_opaque == kNoNode) {
        // alloc's refcount-1 is the tracker's permanent hold: the
        // sentinel survives every register/memory overwrite.
        _opaque = alloc();
        slot(_opaque).kind = ProducerNode::Kind::Truncated;
    }
    nextSeq();
    ++_opaqueSeqs;
    ref(_opaque);
    setReg(rd, _opaque);
}

void
DepTracker::onStore(const Instruction &instr, std::uint64_t addr)
{
    NodeId incoming = _regs[instr.rs2];
    std::uint64_t word = addr / 8;
    if (word >= _mem.size()) {
        if (incoming == kNoNode)
            return;
        _mem.resize(word + 1, kNoNode);
    }
    NodeId old = _mem[word];
    if (old == incoming)
        return;
    if (incoming != kNoNode)
        ref(incoming);
    _mem[word] = incoming;
    if (old != kNoNode)
        unref(old);
}

}  // namespace amnesiac
