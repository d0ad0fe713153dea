#include "telemetry/json.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/logging.hh"

namespace chisel::telemetry {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

JsonWriter::JsonWriter(std::ostream &os, bool pretty)
    : os_(os), pretty_(pretty)
{
}

void
JsonWriter::newline()
{
    if (!pretty_)
        return;
    os_ << '\n';
    for (size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::preValue()
{
    if (expectValue_) {
        // Value for a pending key: comma handling already done.
        expectValue_ = false;
        return;
    }
    panicIf(!stack_.empty() && stack_.back() == Frame::Object,
            "JsonWriter: value inside an object requires a key");
    panicIf(stack_.empty() && wroteRoot_,
            "JsonWriter: multiple root values");
    if (!stack_.empty()) {
        if (hasItems_.back())
            os_ << ',';
        hasItems_.back() = true;
        newline();
    }
    if (stack_.empty())
        wroteRoot_ = true;
}

void
JsonWriter::preKey()
{
    panicIf(stack_.empty() || stack_.back() != Frame::Object,
            "JsonWriter: key outside an object");
    panicIf(expectValue_, "JsonWriter: consecutive keys");
    if (hasItems_.back())
        os_ << ',';
    hasItems_.back() = true;
    newline();
}

void
JsonWriter::beginObject()
{
    preValue();
    os_ << '{';
    stack_.push_back(Frame::Object);
    hasItems_.push_back(false);
}

void
JsonWriter::endObject()
{
    panicIf(stack_.empty() || stack_.back() != Frame::Object,
            "JsonWriter: endObject without beginObject");
    bool had = hasItems_.back();
    stack_.pop_back();
    hasItems_.pop_back();
    if (had)
        newline();
    os_ << '}';
    if (stack_.empty() && pretty_)
        os_ << '\n';
}

void
JsonWriter::beginArray()
{
    preValue();
    os_ << '[';
    stack_.push_back(Frame::Array);
    hasItems_.push_back(false);
}

void
JsonWriter::endArray()
{
    panicIf(stack_.empty() || stack_.back() != Frame::Array,
            "JsonWriter: endArray without beginArray");
    bool had = hasItems_.back();
    stack_.pop_back();
    hasItems_.pop_back();
    if (had)
        newline();
    os_ << ']';
    if (stack_.empty() && pretty_)
        os_ << '\n';
}

void
JsonWriter::key(const std::string &name)
{
    preKey();
    os_ << '"' << jsonEscape(name) << "\":";
    if (pretty_)
        os_ << ' ';
    expectValue_ = true;
}

void
JsonWriter::value(const std::string &v)
{
    preValue();
    os_ << '"' << jsonEscape(v) << '"';
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(double v)
{
    preValue();
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; null is the conventional stand-in.
        os_ << "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
}

void
JsonWriter::value(uint64_t v)
{
    preValue();
    os_ << v;
}

void
JsonWriter::value(int64_t v)
{
    preValue();
    os_ << v;
}

void
JsonWriter::value(bool v)
{
    preValue();
    os_ << (v ? "true" : "false");
}

// ---- ChromeTraceWriter -----------------------------------------------------

ChromeTraceWriter::ChromeTraceWriter(std::ostream &os,
                                     const char *display_time_unit)
    : w_(os, false)
{
    w_.beginObject();
    w_.member("displayTimeUnit", display_time_unit);
    w_.key("traceEvents");
    w_.beginArray();
}

void
ChromeTraceWriter::processName(uint64_t pid, const char *name)
{
    w_.beginObject();
    w_.member("name", "process_name");
    w_.member("ph", "M");
    w_.member("pid", pid);
    w_.member("tid", uint64_t(0));
    w_.key("args");
    w_.beginObject();
    w_.member("name", name);
    w_.endObject();
    w_.endObject();
}

void
ChromeTraceWriter::instant(const std::string &name, const char *cat,
                           const char *scope, double ts_us, uint64_t pid,
                           uint64_t tid, std::initializer_list<Arg> args)
{
    w_.beginObject();
    w_.member("name", name);
    if (cat != nullptr)
        w_.member("cat", cat);
    w_.member("ph", "i");
    w_.member("s", scope);
    w_.member("ts", ts_us);
    w_.member("pid", pid);
    w_.member("tid", tid);
    w_.key("args");
    w_.beginObject();
    for (const Arg &a : args)
        w_.member(a.first, a.second);
    w_.endObject();
    w_.endObject();
}

void
ChromeTraceWriter::finish(uint64_t dropped)
{
    w_.endArray();
    if (dropped > 0)
        w_.member("droppedEvents", dropped);
    w_.endObject();
}

} // namespace chisel::telemetry
