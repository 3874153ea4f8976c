#include "Layers.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "active/ActiveSwitch.hh"
#include "apps/Cluster.hh"
#include "net/Fabric.hh"

namespace simbench {

int
Spans::add(const std::string &name, int parent, Clock::time_point start,
           Clock::time_point end)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{name, parent, start, end});
    return static_cast<int>(spans_.size() - 1);
}

int
Spans::open(const std::string &name, int parent)
{
    const Clock::time_point now = Clock::now();
    return add(name, parent, now, now);
}

void
Spans::close(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

bool
Spans::write(const std::string &path, const std::string &header) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto ns = [this](Clock::time_point t) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                 epoch_)
                .count());
    };
    out << "{" << header << ",\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"parent\": " << s.parent
            << ", \"start_ns\": " << ns(s.start)
            << ", \"end_ns\": " << ns(s.end) << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

void
Layers::peak(const std::string &key, double v)
{
    auto [it, fresh] = values.emplace(key, v);
    if (!fresh)
        it->second = std::max(it->second, v);
}

double
Layers::get(const std::string &key) const
{
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
}

void
recordConfig(const Recording &rec, const std::string &name,
             const ConfigTimes &t)
{
    if (rec.spans == nullptr)
        return;
    const int cfg =
        rec.spans->add("cfg." + name, rec.parent, t.setupStart, t.collectEnd);
    rec.spans->add("setup", cfg, t.setupStart, t.setupEnd);
    rec.spans->add("run", cfg, t.runStart, t.runEnd);
    rec.spans->add("collect", cfg, t.runEnd, t.collectEnd);
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace {

void
readCpu(Layers &out, const char *prefix, const san::cpu::Cpu &cpu,
        san::sim::Tick end)
{
    const san::cpu::TimeBreakdown b = cpu.breakdown(end);
    const std::string p = prefix;
    out.add(p + ".busy_ticks", static_cast<double>(b.busy));
    out.add(p + ".stall_ticks", static_cast<double>(b.stall));
    out.add(p + ".total_ticks", static_cast<double>(b.total));
}

} // namespace

void
readFabric(Layers &out, san::net::Fabric &fabric, san::sim::Tick end)
{
    for (const auto &link : fabric.links()) {
        out.add("net.link.packets", static_cast<double>(link->packetsSent()));
        out.add("net.link.busy_ticks",
                static_cast<double>(link->busyTicks()));
        out.add("net.link.span_ticks", static_cast<double>(end));
    }
    for (const auto &sw : fabric.switches()) {
        out.add("net.switch.packets_routed",
                static_cast<double>(sw->packetsRouted()));
        out.add("net.switch.packets_local",
                static_cast<double>(sw->packetsLocal()));
        auto *as = dynamic_cast<san::active::ActiveSwitch *>(sw.get());
        if (as == nullptr)
            continue;
        out.add("active.chunks_staged",
                static_cast<double>(as->chunksStaged()));
        out.add("active.dispatch_stalls",
                static_cast<double>(as->dispatchStalls()));
        out.add("active.buffers.alloc_failures",
                static_cast<double>(as->buffers().allocationFailures()));
        out.peak("active.buffers.peak",
                 static_cast<double>(as->buffers().peakInUse()));
        for (unsigned i = 0; i < as->cpuCount(); ++i) {
            out.add("active.atb.conflicts",
                    static_cast<double>(as->atb(i).conflicts()));
            san::cpu::SwitchCpu &cpu = as->cpu(i);
            readCpu(out, "cpu.switch", cpu, end);
            const san::mem::Cache &l1d = cpu.memory().l1d();
            out.add("mem.switch.l1d.accesses",
                    static_cast<double>(l1d.hits() + l1d.misses()));
        }
    }
}

void
readCluster(Layers &out, san::apps::Cluster &c)
{
    const san::sim::Tick end = c.sim().now();
    for (unsigned i = 0; i < c.hostCount(); ++i) {
        san::host::Host &h = c.host(i);
        readCpu(out, "cpu.host", h.cpu(), end);
        out.add("host.io_bytes", static_cast<double>(h.ioTrafficBytes()));
        san::mem::MemorySystem &m = h.cpu().memory();
        out.add("mem.host.l1d.accesses",
                static_cast<double>(m.l1d().hits() + m.l1d().misses()));
        out.add("mem.host.l1d.misses", static_cast<double>(m.l1d().misses()));
        if (const san::mem::Cache *l2 = m.l2())
            out.add("mem.host.l2.misses", static_cast<double>(l2->misses()));
        out.add("mem.host.dtlb.misses", static_cast<double>(m.dtlb().misses()));
        out.add("mem.host.dram.page_hits",
                static_cast<double>(m.dram().pageHits()));
        out.add("mem.host.dram.page_misses",
                static_cast<double>(m.dram().pageMisses()));
    }
    for (unsigned i = 0; i < c.storageCount(); ++i) {
        san::io::StorageNode &s = c.storage(i);
        out.add("io.requests", static_cast<double>(s.requestsServed()));
        out.add("io.disk_bytes", static_cast<double>(s.disks().bytesRead()));
        out.add("io.scsi_transactions",
                static_cast<double>(s.bus().transactions()));
    }
    readFabric(out, c.fabric(), end);
}

} // namespace simbench
