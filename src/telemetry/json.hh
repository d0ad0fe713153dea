/**
 * @file
 * Minimal streaming JSON writer for the telemetry exporters.
 *
 * Metrics snapshots and trace files are written through this one
 * class so every emitter gets correct string escaping, comma
 * placement and (optional) indentation without pulling in an
 * external JSON dependency.  The writer is strictly sequential:
 * callers open containers, emit key/value pairs, and close them in
 * order; nesting is validated with panicIf because a malformed
 * sequence is a library bug, not a user error.
 */

#ifndef CHISEL_TELEMETRY_JSON_HH
#define CHISEL_TELEMETRY_JSON_HH

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace chisel::telemetry {

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Sequential JSON emitter with automatic commas and indentation.
 */
class JsonWriter
{
  public:
    /**
     * @param os Destination stream.
     * @param pretty Indent with two spaces per level; compact
     *        single-line output otherwise.
     */
    explicit JsonWriter(std::ostream &os, bool pretty = true);

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next emitted item is its value. */
    void key(const std::string &name);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(uint64_t v);
    void value(int64_t v);
    void value(bool v);
    void value(unsigned v) { value(static_cast<uint64_t>(v)); }
    void value(int v) { value(static_cast<int64_t>(v)); }

    /** key() followed by value() in one call. */
    template <typename T>
    void
    member(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

    /** True once every opened container has been closed. */
    bool complete() const { return stack_.empty() && wroteRoot_; }

  private:
    enum class Frame : uint8_t { Object, Array };

    /** Comma/indent bookkeeping before any value or key. */
    void preValue();
    void preKey();
    void newline();

    std::ostream &os_;
    bool pretty_;
    bool wroteRoot_ = false;
    bool expectValue_ = false;   ///< A key was just written.
    std::vector<Frame> stack_;
    std::vector<bool> hasItems_; ///< Per frame: emitted anything yet.
};

/**
 * The one Chrome trace_event writer: a document of instant events
 * ("ph":"i") with unsigned integer args, streamed as they are added.
 * TraceSink and FlightRecorder both export through it.  (The flight
 * recorder's crash dump writes the same shape with write(2) alone: a
 * signal handler cannot use a stream.)
 */
class ChromeTraceWriter
{
  public:
    using Arg = std::pair<const char *, uint64_t>;

    /** Open the document; @p display_time_unit is e.g. "ns" or "ms". */
    ChromeTraceWriter(std::ostream &os, const char *display_time_unit);

    /** A "process_name" metadata record naming @p pid. */
    void processName(uint64_t pid, const char *name);

    /**
     * One instant event @p ts_us microseconds into the trace.  @p cat
     * may be null (no category); @p scope is "t" (thread), "p"
     * (process) or "g" (global).
     */
    void instant(const std::string &name, const char *cat,
                 const char *scope, double ts_us, uint64_t pid,
                 uint64_t tid, std::initializer_list<Arg> args);

    /** Close the document; a nonzero @p dropped is reported as
     *  "droppedEvents". */
    void finish(uint64_t dropped = 0);

  private:
    JsonWriter w_;
};

} // namespace chisel::telemetry

#endif // CHISEL_TELEMETRY_JSON_HH
