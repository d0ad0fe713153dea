/**
 * @file
 * Live introspection endpoint: a minimal, dependency-free HTTP/1.0
 * server that makes a running serving plane observable from the
 * outside (docs/observability.md).
 *
 * Endpoints:
 *
 *     /          plain-text index of the endpoints below
 *     /metrics   MetricRegistry, Prometheus text exposition 0.0.4
 *     /healthz   plane health + one JSON entry per shard; 503 only
 *                when a majority of shards are Degraded/Quarantined
 *                (on a one-shard plane, that shard), so a plain HTTP
 *                check doubles as the liveness probe
 *     /vars      MetricRegistry JSON snapshot (same schema as
 *                --metrics-json)
 *     /flight    recent flight-recorder events, JSON; ?n=<count>
 *                bounds the event count (default 256)
 *
 * Scope is deliberately small: HTTP/1.0, GET only, loopback binding
 * by default, one request per connection, Connection: close.  This is
 * an operator port, not a web server — but it is exactly the seam the
 * ROADMAP's network front end (item 4) needs, and the handler core
 * (handle()) is callable without any socket for tests.
 *
 * Thread-safety: the server thread only reads through the attached
 * sources' own thread-safe surfaces (atomic metric reads, seqlock'd
 * flight snapshots, the shards' serialized accessors), so it can run
 * while writer and reader threads hammer the plane.
 */

#ifndef CHISEL_OBS_INTROSPECT_HH
#define CHISEL_OBS_INTROSPECT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace chisel::telemetry {
class MetricRegistry;
class FlightRecorder;
} // namespace chisel::telemetry

namespace chisel::shard { class ShardedChisel; }

namespace chisel::obs {

/** One parsed-and-handled request, socket-free for tests. */
struct IntrospectResponse
{
    int status = 200;
    std::string contentType;
    std::string body;
};

class IntrospectionServer
{
  public:
    IntrospectionServer() = default;

    /** stop()s if still running. */
    ~IntrospectionServer();

    IntrospectionServer(const IntrospectionServer &) = delete;
    IntrospectionServer &operator=(const IntrospectionServer &) = delete;

    // ---- Sources (attach before or while serving; nullptr detaches) --

    void attachRegistry(const telemetry::MetricRegistry *registry)
    {
        registry_.store(registry, std::memory_order_release);
    }

    void attachFlight(const telemetry::FlightRecorder *flight)
    {
        flight_.store(flight, std::memory_order_release);
    }

    /**
     * Expose the serving plane through /healthz.  One quarantined
     * shard of several keeps the probe green (the containment rule,
     * docs/sharding.md): its keyspace slice sheds at the RPC layer
     * instead of the whole node being drained.
     */
    void attachShards(const shard::ShardedChisel *sharded)
    {
        sharded_.store(sharded, std::memory_order_release);
    }

    // ---- Serving -----------------------------------------------------

    /**
     * Bind 127.0.0.1:@p port (0 = kernel-chosen ephemeral port) and
     * start the serving thread.  @return false (with a warn) if the
     * socket cannot be set up; observability must never take down
     * the workload.
     */
    bool start(uint16_t port);

    /** Join the serving thread and close the socket.  Idempotent. */
    void stop();

    bool running() const { return listenFd_ >= 0; }

    /** The bound port (resolves port 0); 0 when not running. */
    uint16_t port() const { return port_; }

    // ---- Request handling (used by the thread AND by tests) ----------

    /**
     * Handle one request line's worth of routing: @p method ("GET")
     * and @p target ("/metrics", "/flight?n=10").
     */
    IntrospectResponse handle(const std::string &method,
                              const std::string &target) const;

  private:
    void serveLoop();
    void serveConnection(int fd);

    IntrospectResponse index() const;
    IntrospectResponse metrics() const;
    IntrospectResponse healthz() const;
    IntrospectResponse vars() const;
    IntrospectResponse flight(const std::string &query) const;

    std::atomic<const telemetry::MetricRegistry *> registry_{nullptr};
    std::atomic<const telemetry::FlightRecorder *> flight_{nullptr};
    std::atomic<const shard::ShardedChisel *> sharded_{nullptr};

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stopRequested_{false};
    std::thread thread_;
};

} // namespace chisel::obs

#endif // CHISEL_OBS_INTROSPECT_HH
