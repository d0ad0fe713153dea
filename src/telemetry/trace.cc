#include "telemetry/trace.hh"

#include <fstream>
#include <ostream>

#include "common/clock.hh"
#include "common/logging.hh"
#include "telemetry/json.hh"

namespace chisel::telemetry {

namespace detail {
thread_local AccessTracer *g_activeTracer = nullptr;
} // namespace detail

const char *
tableName(Table t)
{
    switch (t) {
      case Table::Index: return "index";
      case Table::Filter: return "filter";
      case Table::BitVector: return "bitvector";
      case Table::Result: return "result";
      case Table::Tcam: return "tcam";
      case Table::kCount: break;
    }
    return "?";
}

// ---- TraceSink -------------------------------------------------------------

TraceSink::TraceSink(size_t maxEvents) : maxEvents_(maxEvents)
{
}

void
TraceSink::record(const TraceEvent &event)
{
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        return;
    }
    events_.push_back(event);
}

void
TraceSink::clear()
{
    events_.clear();
    dropped_ = 0;
}

void
TraceSink::writeChromeTrace(std::ostream &os) const
{
    ChromeTraceWriter trace(os, "ns");
    trace.processName(0, "chisel");   // The single modeled process.
    uint64_t epoch = events_.empty() ? 0 : events_.front().ns;
    for (const TraceEvent &e : events_)
        trace.instant(std::string(tableName(e.table)) +
                          (e.op == Op::Read ? ".read" : ".write"),
                      "memaccess", "t",
                      static_cast<double>(e.ns - epoch) / 1000.0, 0, 0,
                      {{"addr", e.addr},
                       {"bytes", static_cast<uint64_t>(e.bytes)}});
    trace.finish(dropped_);
}

bool
TraceSink::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open trace file for writing: " + path);
        return false;
    }
    writeChromeTrace(out);
    out.flush();
    if (!out) {
        warn("write failed for trace file: " + path);
        return false;
    }
    return true;
}

// ---- AccessTracer ----------------------------------------------------------

uint64_t
AccessTracer::totalReads() const
{
    uint64_t t = 0;
    for (const TableCounts &c : counts_)
        t += c.reads;
    return t;
}

uint64_t
AccessTracer::totalWrites() const
{
    uint64_t t = 0;
    for (const TableCounts &c : counts_)
        t += c.writes;
    return t;
}

void
AccessTracer::reset()
{
    counts_.fill(TableCounts{});
    // The sink, if any, stays attached; its buffer is the caller's.
}

void
AccessTracer::recordEvent(Table table, Op op, uint64_t addr,
                          uint32_t bytes)
{
    sink_->record(TraceEvent{monotonicNowNs(), addr, bytes, table, op});
}

} // namespace chisel::telemetry
