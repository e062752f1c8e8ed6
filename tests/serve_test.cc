// The serving tier (ISSUE 7, DESIGN.md §4h): wire framing, bounded
// admission, per-request deadlines, versioned hot-reload and graceful
// drain.
//
// The headline properties proven here:
//   * overload is deterministic — with every worker parked and the queue
//     at depth, each extra connection receives a structured
//     RESOURCE_EXHAUSTED shed and serve.requests_shed counts exactly them;
//   * a deadline that expires mid-request degrades to a partial,
//     provenance-stamped report instead of an error or a stall;
//   * hot-reload never mixes rule-set versions inside one response, even
//     with reloads racing a multi-threaded request hammer (the TSan CI
//     shard runs this suite for exactly that reason);
//   * drain sheds still-queued requests with reason=draining and always
//     answers every admitted connection.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/serialization.h"
#include "datagen/bench_gen.h"
#include "core/trainer.h"
#include "datagen/corpus_gen.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "table/csv.h"
#include "typedet/eval_functions.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/retry.h"
#include "util/status.h"

namespace autotest::serve {
namespace {

using util::StatusCode;

uint64_t CounterValue(std::string_view name) {
  return metrics::Registry::Global().GetCounter(name).value();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// A clock whose reading advances by a fixed step on every NowMicros call:
// virtual time that passes *because work happens*, which lets a test
// expire a deadline inside the predict loop deterministically.
class StepClock final : public util::Clock {
 public:
  explicit StepClock(int64_t step) : step_(step) {}
  int64_t NowMicros() override {
    return now_.fetch_add(step_, std::memory_order_relaxed) + step_;
  }
  void SleepMicros(int64_t micros) override {
    now_.fetch_add(micros, std::memory_order_relaxed);
  }

 private:
  const int64_t step_;
  std::atomic<int64_t> now_{0};
};

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new table::Corpus(
        datagen::GenerateCorpus(datagen::TablibProfile(400, 5)));
    typedet::EvalFunctionSetOptions opt;
    opt.embedding_centroids_per_model = 30;
    evals_ = new typedet::EvalFunctionSet(
        typedet::EvalFunctionSet::Build(*corpus_, opt));
    core::TrainOptions topt;
    topt.synthetic_count = 200;
    model_ = new core::TrainedModel(
        core::TrainAutoTest(*corpus_, *evals_, topt));
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete evals_;
    evals_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  void SetUp() override {
    ASSERT_GE(model_->constraints.size(), 1u)
        << "fixture model trained no constraints";
  }

  void TearDown() override { util::FailpointRegistry::Global().Reset(); }

  // A CSV with one textual column (the predictor's input) and one numeric
  // column (skipped up front, same policy as `autotest check`).
  static std::string SampleCsv() {
    return "city,amount\nBeijing,1\nParis,2\nTokyo,3\nOsaka,4\n";
  }

  static std::string CheckPayload() {
    Request request;
    request.verb = "check";
    request.table = "sample";
    request.body = SampleCsv();
    return SerializeRequest(request);
  }

  static std::string PingPayload() {
    Request request;
    request.verb = "ping";
    return SerializeRequest(request);
  }

  // A store serving this test's own rules file (distinct paths so suites
  // running in parallel never collide).
  std::unique_ptr<SnapshotStore> MakeLoadedStore(const std::string& path) {
    WriteFile(path, core::SerializeRules(model_->constraints));
    auto store = std::make_unique<SnapshotStore>(evals_, path);
    EXPECT_TRUE(store->TryReload().ok());
    return store;
  }

  static table::Corpus* corpus_;
  static typedet::EvalFunctionSet* evals_;
  static core::TrainedModel* model_;
};

table::Corpus* ServeTest::corpus_ = nullptr;
typedet::EvalFunctionSet* ServeTest::evals_ = nullptr;
core::TrainedModel* ServeTest::model_ = nullptr;

// ---------------------------------------------------------------- wire --

TEST_F(ServeTest, WireRequestRoundTripsAndRejectsGarbage) {
  Request request;
  request.verb = "check";
  request.deadline_ms = 250;
  request.table = "orders";
  request.body = SampleCsv();
  auto parsed = TryParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->verb, "check");
  EXPECT_EQ(parsed->deadline_ms, 250);
  EXPECT_EQ(parsed->table, "orders");
  EXPECT_EQ(parsed->body, SampleCsv());

  // Strictness: bad magic, unknown verb, unknown key and a malformed
  // deadline are each kInvalidArgument — a typoed knob must not silently
  // serve with defaults. deadline_ms is client-controlled, so values
  // over the 24h cap (including ones that overflow strtoll) are rejected
  // before any µs arithmetic can overflow.
  for (std::string_view bad :
       {"not.the.magic ping\n\n", "autotest.serve.v1 destroy\n\n",
        "autotest.serve.v1 ping\ndead_line_ms=5\n\n",
        "autotest.serve.v1 check\ndeadline_ms=soon\n\n",
        "autotest.serve.v1 check\ndeadline_ms=-4\n\n",
        "autotest.serve.v1 check\ndeadline_ms=86400001\n\n",
        "autotest.serve.v1 check\ndeadline_ms=9223372036854775807\n\n",
        "autotest.serve.v1 check\ndeadline_ms=99999999999999999999999\n\n"}) {
    auto r = TryParseRequest(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  auto at_cap = TryParseRequest("autotest.serve.v1 ping\ndeadline_ms=" +
                                std::to_string(kMaxDeadlineMs) + "\n\n");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->deadline_ms, kMaxDeadlineMs);
}

TEST_F(ServeTest, WireResponseRoundTripsCodeFieldsAndBody) {
  Response response;
  response.code = StatusCode::kResourceExhausted;
  response.AddField("reason", "shed");
  response.AddField("version", "3");
  response.body = "server is saturated; retry with backoff\n";
  const std::string payload = SerializeResponse(response);
  // The status line is grep-able by scripts: stable code name, no prose.
  EXPECT_EQ(payload.rfind("autotest.serve.v1 RESOURCE_EXHAUSTED\n", 0), 0u);
  auto parsed = TryParseResponse(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(parsed->Field("reason"), "shed");
  EXPECT_EQ(parsed->Field("version"), "3");
  EXPECT_EQ(parsed->body, response.body);
  EXPECT_EQ(parsed->Field("absent"), "");

  auto bad = TryParseResponse("autotest.serve.v1 NOT_A_CODE\n\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, FramingEnforcesCapAndDetectsTruncation) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "hello frames";
  util::Status write_st = TryWriteFrame(fds[1], payload);
  ASSERT_TRUE(write_st.ok()) << write_st.ToString();
  auto read_back = TryReadFrame(fds[0], 1 << 20);
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_EQ(*read_back, payload);

  // Over-cap frames are rejected from the 4-byte header alone, before any
  // allocation proportional to the claimed length.
  write_st = TryWriteFrame(fds[1], payload);
  ASSERT_TRUE(write_st.ok());
  auto capped = TryReadFrame(fds[0], payload.size() - 1);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  ::close(fds[0]);
  ::close(fds[1]);

  // A peer that vanishes mid-payload is kDataLoss, not a hang.
  ASSERT_EQ(::pipe(fds), 0);
  const std::string frame = EncodeFrame("truncated payload");
  const std::string half = frame.substr(0, frame.size() / 2);
  ASSERT_EQ(::write(fds[1], half.data(), half.size()),
            static_cast<ssize_t>(half.size()));
  ::close(fds[1]);
  auto truncated = TryReadFrame(fds[0], 1 << 20);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  ::close(fds[0]);
}

// ----------------------------------------------------------- admission --

TEST_F(ServeTest, AdmissionQueueNeverBlocksAndNeverExceedsDepth) {
  AdmissionQueue queue(2);
  EXPECT_TRUE(queue.TryPush({10, 0}));
  EXPECT_TRUE(queue.TryPush({11, 0}));
  EXPECT_FALSE(queue.TryPush({12, 0}));  // at depth: shed, don't block
  EXPECT_EQ(queue.size(), 2u);

  auto job = queue.Pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->fd, 10);
  EXPECT_TRUE(queue.TryPush({13, 0}));  // slot freed

  queue.CloseAdmissions();
  EXPECT_FALSE(queue.TryPush({14, 0}));
  // Queued jobs drain in order after admissions close.
  EXPECT_EQ(queue.Pop()->fd, 11);
  EXPECT_EQ(queue.Pop()->fd, 13);
  queue.Shutdown();
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST_F(ServeTest, AdmissionDrainRemainingReturnsQueuedJobs) {
  AdmissionQueue queue(4);
  EXPECT_TRUE(queue.TryPush({20, 0}));
  EXPECT_TRUE(queue.TryPush({21, 0}));
  std::vector<AdmittedJob> left = queue.DrainRemaining();
  ASSERT_EQ(left.size(), 2u);
  EXPECT_EQ(left[0].fd, 20);
  EXPECT_EQ(left[1].fd, 21);
  EXPECT_FALSE(queue.TryPush({22, 0}));  // DrainRemaining closed admissions
  EXPECT_EQ(queue.size(), 0u);
}

// ------------------------------------------------------------ snapshot --

TEST_F(ServeTest, ReloadVersionsAdvanceAndFailuresKeepOldSnapshot) {
  const std::string path = "/tmp/autotest_serve_snapshot.sdc";
  auto store = MakeLoadedStore(path);
  EXPECT_EQ(store->version(), 1u);
  auto v1 = store->Get();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_GT(v1->predictor().num_rules(), 0u);

  // Corrupt bytes: the load-validate-then-swap contract means the old
  // snapshot keeps serving, bit for bit, and the failure is counted.
  const uint64_t failures_before = CounterValue(metrics::kMServeReloadFailures);
  WriteFile(path, "sdc.rules.v? mangled beyond recognition\n");
  util::Status corrupt = store->TryReload();
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(store->version(), 1u);
  EXPECT_EQ(store->Get().get(), v1.get());

  // A parseable file with zero servable rules is also a validation
  // failure: swapping it in would turn the daemon into a silent no-op.
  WriteFile(path, core::SerializeRules({}));
  util::Status empty = store->TryReload();
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store->version(), 1u);

  // Injected faults on the reload path itself and inside the loader.
  auto& reg = util::FailpointRegistry::Global();
  WriteFile(path, core::SerializeRules(model_->constraints));
  ASSERT_TRUE(reg.Configure("serve.reload=on").ok());
  EXPECT_FALSE(store->TryReload().ok());
  reg.Disarm();
  ASSERT_TRUE(reg.Configure("rules.parse=on").ok());
  EXPECT_FALSE(store->TryReload().ok());
  reg.Disarm();
  EXPECT_EQ(store->version(), 1u);
  EXPECT_EQ(store->Get().get(), v1.get());
  EXPECT_GE(CounterValue(metrics::kMServeReloadFailures),
            failures_before + 4);

  // With the good file back, the next reload swaps and bumps the version.
  const uint64_t reloads_before = CounterValue(metrics::kMServeReloads);
  ASSERT_TRUE(store->TryReload().ok());
  EXPECT_EQ(store->version(), 2u);
  EXPECT_NE(store->Get().get(), v1.get());
  EXPECT_EQ(CounterValue(metrics::kMServeReloads), reloads_before + 1);
}

// ------------------------------------------------------------- session --

TEST_F(ServeTest, HandlePayloadServesPingMetricsReloadAndCheck) {
  const std::string path = "/tmp/autotest_serve_session.sdc";
  auto store = MakeLoadedStore(path);
  ServeOptions options;

  Response ping = HandlePayload(PingPayload(), *store, options, -1);
  EXPECT_EQ(ping.code, StatusCode::kOk);
  EXPECT_EQ(ping.Field("version"), "1");
  EXPECT_EQ(ping.body, "pong\n");

  Request metrics_request;
  metrics_request.verb = "metrics";
  Response metrics_response = HandlePayload(
      SerializeRequest(metrics_request), *store, options, -1);
  EXPECT_EQ(metrics_response.code, StatusCode::kOk);
  EXPECT_NE(metrics_response.body.find("autotest.metrics.v1"),
            std::string::npos);
  EXPECT_NE(metrics_response.body.find("serve.requests"),
            std::string::npos);

  Request reload_request;
  reload_request.verb = "reload";
  Response reloaded = HandlePayload(SerializeRequest(reload_request),
                                    *store, options, -1);
  EXPECT_EQ(reloaded.code, StatusCode::kOk);
  EXPECT_EQ(reloaded.Field("version"), "2");

  const uint64_t ok_before = CounterValue(metrics::kMServeRequestsOk);
  Response check = HandlePayload(CheckPayload(), *store, options, -1);
  EXPECT_EQ(check.code, StatusCode::kOk);
  EXPECT_EQ(check.Field("provenance"), "full");
  EXPECT_EQ(check.Field("version"), "2");
  EXPECT_EQ(check.Field("columns_checked"), "1");  // `amount` is numeric
  EXPECT_EQ(check.Field("columns_skipped"), "0");
  EXPECT_EQ(CounterValue(metrics::kMServeRequestsOk), ok_before + 1);

  // A malformed payload is a structured INVALID_ARGUMENT response (and an
  // error-counted request), never a dropped connection.
  const uint64_t err_before = CounterValue(metrics::kMServeRequestsError);
  Response bad = HandlePayload("autotest.serve.v1 explode\n\n", *store,
                               options, -1);
  EXPECT_EQ(bad.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(CounterValue(metrics::kMServeRequestsError), err_before + 1);
}

TEST_F(ServeTest, RequestsBeforeFirstLoadFailStructurally) {
  SnapshotStore store(evals_, "/tmp/autotest_serve_never_loaded.sdc");
  ServeOptions options;
  Response response = HandlePayload(PingPayload(), store, options, -1);
  EXPECT_EQ(response.code, StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ deadline --

TEST_F(ServeTest, BudgetSpentInQueueFailsBeforeParse) {
  const std::string path = "/tmp/autotest_serve_dl_queue.sdc";
  auto store = MakeLoadedStore(path);
  util::VirtualClock clock;
  ServeOptions options;
  options.clock = &clock;

  Request request;
  request.verb = "check";
  request.deadline_ms = 5;
  request.body = SampleCsv();
  // Admitted at t=0, popped by a worker at t=10ms: the 5ms budget died in
  // the queue, so the outcome is a structured DEADLINE_EXCEEDED (there is
  // no partial result to report yet).
  clock.Advance(10'000);
  const uint64_t expired_before =
      CounterValue(metrics::kMServeDeadlineExpirations);
  Response response = HandlePayload(SerializeRequest(request), *store,
                                    options, /*admitted_micros=*/0);
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue(metrics::kMServeDeadlineExpirations),
            expired_before + 1);
}

TEST_F(ServeTest, ParseConsumingTheBudgetDegradesToPartialParse) {
  const std::string path = "/tmp/autotest_serve_dl_parse.sdc";
  auto store = MakeLoadedStore(path);
  util::VirtualClock clock;
  ServeOptions options;
  options.clock = &clock;
  // The phase hook plays a slow CSV parse: by the predict boundary the
  // whole 50ms budget is gone.
  options.phase_hook = [&clock](std::string_view phase) {
    if (phase == "predict") clock.Advance(50'000);
  };

  Request request;
  request.verb = "check";
  request.deadline_ms = 50;
  request.table = "slow";
  request.body = SampleCsv();
  Response response = HandlePayload(SerializeRequest(request), *store,
                                    options, /*admitted_micros=*/0);
  // Degraded, not failed: the response is OK with provenance stamped so
  // the client knows nothing was predicted.
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(response.Field("provenance"), "partial:parse");
  EXPECT_EQ(response.Field("columns_checked"), "0");
  EXPECT_EQ(response.Field("detections"), "0");
}

TEST_F(ServeTest, ExpiryInsideThePredictLoopDegradesToPartialPredict) {
  const std::string path = "/tmp/autotest_serve_dl_predict.sdc";
  auto store = MakeLoadedStore(path);
  // Every clock reading costs 400 virtual µs; a 1ms budget survives the
  // parse-boundary checks but expires at a rule-group gate inside
  // PredictInternal — exactly the mid-predict expiry path.
  StepClock clock(400);
  ServeOptions options;
  options.clock = &clock;

  Request request;
  request.verb = "check";
  request.deadline_ms = 1;
  request.body = SampleCsv();
  const uint64_t expired_before =
      CounterValue(metrics::kMServeDeadlineExpirations);
  Response response = HandlePayload(SerializeRequest(request), *store,
                                    options, /*admitted_micros=*/0);
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(response.Field("provenance"), "partial:predict");
  EXPECT_GE(CounterValue(metrics::kMServeDeadlineExpirations),
            expired_before + 1);
}

// ------------------------------------------------------------ overload --

// A latch the phase hook parks worker threads on, so tests can hold the
// server in a known saturated state.
struct WorkerLatch {
  std::mutex mu;
  std::condition_variable cv;
  size_t parked = 0;
  bool released = false;

  void ParkOn(std::string_view phase, std::string_view at) {
    if (phase != at) return;
    std::unique_lock<std::mutex> lock(mu);
    ++parked;
    cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }
  void WaitParked(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

int MustConnect(uint16_t port) {
  auto fd = TryConnect("127.0.0.1", port);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  return fd.ok() ? *fd : -1;
}

void SendPayload(int fd, const std::string& payload) {
  util::Status st = TryWriteFrame(fd, payload);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

Response MustReadResponse(int fd) {
  auto frame = TryReadFrame(fd, 1 << 20);
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  if (!frame.ok()) return Response{};
  auto response = TryParseResponse(*frame);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? *response : Response{};
}

void WaitForQueueSize(const Server& server, size_t n) {
  for (int i = 0; i < 5000 && server.queue_size() != n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.queue_size(), n);
}

TEST_F(ServeTest, OverloadShedsDeterministicallyAndCountsEveryShed) {
  const std::string path = "/tmp/autotest_serve_overload.sdc";
  auto store = MakeLoadedStore(path);

  WorkerLatch latch;
  ServeOptions options;
  options.max_inflight = 1;
  options.queue_depth = 2;
  options.phase_hook = [&latch](std::string_view phase) {
    latch.ParkOn(phase, "read");
  };

  Server server(store.get(), options);
  util::Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  // Saturate: one request parks the only worker, two more fill the queue.
  const int inflight = MustConnect(server.port());
  SendPayload(inflight, PingPayload());
  latch.WaitParked(1);
  std::vector<int> queued;
  for (int i = 0; i < 2; ++i) {
    int fd = MustConnect(server.port());
    SendPayload(fd, PingPayload());
    queued.push_back(fd);
  }
  WaitForQueueSize(server, 2);

  // Every further connection is shed by the acceptor itself, so the count
  // is exact, not a race: 4 connections, 4 structured sheds.
  const uint64_t shed_before = CounterValue(metrics::kMServeRequestsShed);
  constexpr int kShedRequests = 4;
  for (int i = 0; i < kShedRequests; ++i) {
    int fd = MustConnect(server.port());
    Response shed = MustReadResponse(fd);
    EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
    EXPECT_EQ(shed.Field("reason"), "shed");
    ::close(fd);
  }
  EXPECT_EQ(CounterValue(metrics::kMServeRequestsShed),
            shed_before + kShedRequests);

  // A peer that vanishes before reading its shed notice (RST via
  // SO_LINGER=0) costs the acceptor one failed write, not the process a
  // SIGPIPE: the sheds below still complete on the same acceptor thread.
  int rude = MustConnect(server.port());
  struct linger lg {1, 0};
  ::setsockopt(rude, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(rude);
  for (int i = 0; i < 2; ++i) {
    int fd = MustConnect(server.port());
    Response shed = MustReadResponse(fd);
    EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
    ::close(fd);
  }
  constexpr int kTotalSheds = kShedRequests + 3;  // + rude + 2 after it

  // Release the latch: every admitted request completes normally.
  latch.Release();
  EXPECT_EQ(MustReadResponse(inflight).code, StatusCode::kOk);
  ::close(inflight);
  for (int fd : queued) {
    EXPECT_EQ(MustReadResponse(fd).code, StatusCode::kOk);
    ::close(fd);
  }

  DrainReport report = server.StopAndDrain();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.shed, static_cast<uint64_t>(kTotalSheds));
  EXPECT_EQ(report.drain_shed, 0u);
  EXPECT_TRUE(report.drained_clean);
}

// A client that connects and never sends a frame must not pin a worker:
// the read is bounded by the default budget, answers a structured
// DEADLINE_EXCEEDED, and the worker serves the next request normally.
TEST_F(ServeTest, SilentClientTimesOutStructurallyAndFreesTheWorker) {
  const std::string path = "/tmp/autotest_serve_silent.sdc";
  auto store = MakeLoadedStore(path);
  ServeOptions options;
  options.max_inflight = 1;
  options.default_deadline_micros = 200'000;  // 200ms read budget
  Server server(store.get(), options);
  util::Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  const uint64_t read_errors_before =
      CounterValue(metrics::kMServeReadErrors);
  int silent = MustConnect(server.port());
  Response timed_out = MustReadResponse(silent);
  EXPECT_EQ(timed_out.code, StatusCode::kDeadlineExceeded);
  ::close(silent);
  EXPECT_GE(CounterValue(metrics::kMServeReadErrors),
            read_errors_before + 1);

  // The only worker is free again; a well-behaved request succeeds.
  int fd = MustConnect(server.port());
  SendPayload(fd, PingPayload());
  EXPECT_EQ(MustReadResponse(fd).code, StatusCode::kOk);
  ::close(fd);
  DrainReport report = server.StopAndDrain();
  EXPECT_TRUE(report.drained_clean);
}

// --------------------------------------------------------------- drain --

TEST_F(ServeTest, DrainShedsQueuedRequestsWithDrainingReason) {
  const std::string path = "/tmp/autotest_serve_drain.sdc";
  auto store = MakeLoadedStore(path);

  WorkerLatch latch;
  ServeOptions options;
  options.max_inflight = 1;
  options.queue_depth = 4;
  options.drain_timeout_micros = 0;  // shed the queue immediately
  options.phase_hook = [&latch](std::string_view phase) {
    latch.ParkOn(phase, "read");
  };

  Server server(store.get(), options);
  util::Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  const int inflight = MustConnect(server.port());
  SendPayload(inflight, PingPayload());
  latch.WaitParked(1);
  std::vector<int> queued;
  for (int i = 0; i < 2; ++i) {
    int fd = MustConnect(server.port());
    SendPayload(fd, PingPayload());
    queued.push_back(fd);
  }
  WaitForQueueSize(server, 2);

  const uint64_t drain_shed_before = CounterValue(metrics::kMServeDrainShed);
  server.RequestStop();
  DrainReport report;
  std::thread drainer([&] { report = server.StopAndDrain(); });

  // The queued-but-never-started requests get their structured "draining"
  // shed while the in-flight one is still being served.
  for (int fd : queued) {
    Response shed = MustReadResponse(fd);
    EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
    EXPECT_EQ(shed.Field("reason"), "draining");
    ::close(fd);
  }

  latch.Release();
  EXPECT_EQ(MustReadResponse(inflight).code, StatusCode::kOk);
  ::close(inflight);
  drainer.join();

  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.drain_shed, 2u);
  EXPECT_FALSE(report.drained_clean);
  EXPECT_EQ(CounterValue(metrics::kMServeDrainShed), drain_shed_before + 2);
}

// StopAndDrain must terminate even while a worker sits in a frame read
// whose budget is far longer than the drain timeout: the drain sweep
// shuts the parked socket down, the read fails immediately, and join
// returns — SIGTERM always terminates the daemon.
TEST_F(ServeTest, DrainShutsDownSocketsParkedInRead) {
  const std::string path = "/tmp/autotest_serve_drain_read.sdc";
  auto store = MakeLoadedStore(path);
  std::atomic<int> read_phases{0};
  ServeOptions options;
  options.max_inflight = 1;
  options.drain_timeout_micros = 0;
  // A read budget drain must not have to wait out.
  options.default_deadline_micros = 30'000'000;
  options.phase_hook = [&read_phases](std::string_view phase) {
    if (phase == "read") read_phases.fetch_add(1);
  };
  Server server(store.get(), options);
  util::Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  int silent = MustConnect(server.port());
  for (int i = 0; i < 5000 && read_phases.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(read_phases.load(), 1);
  // A beat for the worker to move from the phase hook into the poll().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto drain_started = std::chrono::steady_clock::now();
  server.RequestStop();
  DrainReport report = server.StopAndDrain();
  const auto drain_seconds =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - drain_started)
          .count();
  EXPECT_LT(drain_seconds, 10) << "drain waited out the 30s read budget";
  EXPECT_EQ(report.drain_shed, 0u);

  // The silent client sees its connection die, not a response.
  auto frame = TryReadFrame(silent, 1 << 20);
  EXPECT_FALSE(frame.ok());
  ::close(silent);
}

// ---------------------------------------------------------- hot-reload --

TEST_F(ServeTest, ReloadUnderLoadNeverMixesVersionsInOneResponse) {
  const std::string path = "/tmp/autotest_serve_reload_race.sdc";
  // Two rule files with provably different servable-rule counts: every
  // response's (version, rules) pair must match exactly one of them.
  const std::string one_rule =
      core::SerializeRules({model_->constraints[0]});
  const std::string two_rules = core::SerializeRules(
      {model_->constraints[0], model_->constraints[0]});
  WriteFile(path, one_rule);
  SnapshotStore store(evals_, path);
  ASSERT_TRUE(store.TryReload().ok());
  ASSERT_EQ(store.Get()->predictor().num_rules(), 1u);

  ServeOptions options;
  const std::string payload = CheckPayload();

  std::atomic<bool> done{false};
  std::thread reloader([&] {
    for (int i = 0; i < 30; ++i) {
      WriteFile(path, i % 2 == 0 ? two_rules : one_rule);
      EXPECT_TRUE(store.TryReload().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true, std::memory_order_relaxed);
  });

  constexpr size_t kClients = 4;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> observed(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!done.load(std::memory_order_relaxed)) {
        Response response = HandlePayload(payload, store, options, -1);
        ASSERT_EQ(response.code, StatusCode::kOk);
        observed[c].emplace_back(
            std::stoull(std::string(response.Field("version"))),
            std::stoull(std::string(response.Field("rules"))));
      }
    });
  }
  reloader.join();
  for (auto& t : clients) t.join();

  // Invariant: one version, one rule count — a response stamped with
  // version v but serving the other file's rules would show up here as a
  // second count for v.
  std::map<uint64_t, std::set<uint64_t>> counts_by_version;
  size_t total = 0;
  for (const auto& per_client : observed) {
    total += per_client.size();
    for (const auto& [version, rules] : per_client) {
      counts_by_version[version].insert(rules);
    }
  }
  EXPECT_GT(total, 0u);
  for (const auto& [version, counts] : counts_by_version) {
    EXPECT_EQ(counts.size(), 1u)
        << "version " << version << " served mixed rule counts";
    EXPECT_TRUE(*counts.begin() == 1u || *counts.begin() == 2u)
        << "version " << version << " served " << *counts.begin()
        << " rules";
  }
}

// A store built without a function set resolves every file by id, and
// each snapshot owns the functions its rules reference: a daemon that
// started on relational-trained rules reloads spreadsheet-trained ones and
// serves them in full, exactly as a store holding the spreadsheet model's
// own trained function set would.
TEST_F(ServeTest, ReloadAcrossCorporaResolvesEveryRuleOfTheNewFile) {
  struct Trained {
    std::unique_ptr<typedet::EvalFunctionSet> evals;
    std::string rules;
  };
  auto train = [](const datagen::CorpusProfile& profile) {
    table::Corpus corpus = datagen::GenerateCorpus(profile);
    typedet::EvalFunctionSetOptions opt;
    opt.embedding_centroids_per_model = 25;
    auto evals = std::make_unique<typedet::EvalFunctionSet>(
        typedet::EvalFunctionSet::Build(corpus, opt));
    core::TrainOptions topt;
    topt.synthetic_count = 150;
    core::TrainedModel model = core::TrainAutoTest(corpus, *evals, topt);
    return Trained{std::move(evals), core::SerializeRules(model.constraints)};
  };
  const Trained relational =
      train(datagen::RelationalTablesProfile(500, 11));
  const Trained spreadsheet =
      train(datagen::SpreadsheetTablesProfile(500, 22));
  ASSERT_NE(relational.rules, spreadsheet.rules);

  // One single-column request per benchmark column, so every column's
  // detections are compared.
  std::vector<std::string> payloads;
  const datagen::LabeledBenchmark bench = datagen::WithSyntheticErrors(
      datagen::GenerateBenchmark(datagen::RtBenchProfile(120, 5)), 0.2, 5);
  for (const auto& labeled : bench.columns) {
    table::Table t;
    t.columns.push_back(labeled.column);
    Request request;
    request.verb = "check";
    request.table = labeled.column.name;
    request.body = table::WriteCsv(t);
    payloads.push_back(SerializeRequest(request));
  }

  const std::string path = "/tmp/autotest_serve_cross_corpus.sdc";
  const std::string ref_path = "/tmp/autotest_serve_cross_corpus_ref.sdc";
  ServeOptions options;
  SnapshotStore store(/*evals=*/nullptr, path);
  // Serves `rules` from `store` and from a store over the trained set;
  // returns the response bodies after asserting they agree.
  auto serve_and_compare = [&](const Trained& trained, uint64_t version) {
    WriteFile(path, trained.rules);
    WriteFile(ref_path, trained.rules);
    EXPECT_TRUE(store.TryReload().ok());
    EXPECT_EQ(store.version(), version);
    EXPECT_EQ(store.Get()->unresolved(), 0u);
    SnapshotStore reference(trained.evals.get(), ref_path);
    EXPECT_TRUE(reference.TryReload().ok());
    EXPECT_EQ(store.Get()->predictor().num_rules(),
              reference.Get()->predictor().num_rules());
    std::vector<std::string> bodies;
    for (const std::string& payload : payloads) {
      Response got = HandlePayload(payload, store, options, -1);
      Response want = HandlePayload(payload, reference, options, -1);
      EXPECT_EQ(got.code, StatusCode::kOk);
      EXPECT_EQ(got.Field("version"), std::to_string(version));
      EXPECT_EQ(got.body, want.body);
      bodies.push_back(got.body);
    }
    return bodies;
  };
  const auto before = serve_and_compare(relational, 1);
  const auto after = serve_and_compare(spreadsheet, 2);
  EXPECT_NE(before, after) << "both rule sets answered identically";
  std::remove(path.c_str());
  std::remove(ref_path.c_str());
}

// ---------------------------------------------------------- failpoints --

TEST_F(ServeTest, InjectedReadFaultYieldsStructuredErrorNotACrash) {
  const std::string path = "/tmp/autotest_serve_fp_read.sdc";
  auto store = MakeLoadedStore(path);
  ServeOptions options;
  options.max_inflight = 1;
  Server server(store.get(), options);
  util::Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("serve.read=on").ok());
  const uint64_t read_errors_before =
      CounterValue(metrics::kMServeReadErrors);
  int fd = MustConnect(server.port());
  SendPayload(fd, PingPayload());
  Response response = MustReadResponse(fd);
  EXPECT_EQ(response.code, StatusCode::kIoError);
  EXPECT_NE(response.body.find("serve.read"), std::string::npos);
  ::close(fd);
  EXPECT_GE(CounterValue(metrics::kMServeReadErrors),
            read_errors_before + 1);
  reg.Disarm();

  // Disarmed, the same exchange succeeds: the fault was injected, not
  // structural.
  fd = MustConnect(server.port());
  SendPayload(fd, PingPayload());
  EXPECT_EQ(MustReadResponse(fd).code, StatusCode::kOk);
  ::close(fd);
  (void)server.StopAndDrain();
}

TEST_F(ServeTest, InjectedAcceptFaultDropsConnectionButServerSurvives) {
  const std::string path = "/tmp/autotest_serve_fp_accept.sdc";
  auto store = MakeLoadedStore(path);
  ServeOptions options;
  options.max_inflight = 1;
  Server server(store.get(), options);
  util::Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("serve.accept=on").ok());
  const uint64_t accept_errors_before =
      CounterValue(metrics::kMServeAcceptErrors);
  int fd = MustConnect(server.port());
  SendPayload(fd, PingPayload());
  // The injected accept fault closes the connection without a response;
  // the client sees clean data loss, not a stuck read.
  auto frame = TryReadFrame(fd, 1 << 20);
  EXPECT_FALSE(frame.ok());
  ::close(fd);
  for (int i = 0; i < 5000 && CounterValue(metrics::kMServeAcceptErrors) ==
                                  accept_errors_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(CounterValue(metrics::kMServeAcceptErrors),
            accept_errors_before + 1);
  reg.Disarm();

  fd = MustConnect(server.port());
  SendPayload(fd, PingPayload());
  EXPECT_EQ(MustReadResponse(fd).code, StatusCode::kOk);
  ::close(fd);
  (void)server.StopAndDrain();
}

// ---------------------------------------------------------- governance --
// Per-request budgets, per-tenant quotas and circuit breakers
// (DESIGN.md §4j).

TEST_F(ServeTest, WireTenantFieldRoundTripsAndValidates) {
  Request request;
  request.verb = "ping";
  request.tenant = "team-a.prod_1";
  auto parsed = TryParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tenant, "team-a.prod_1");

  // No tenant field at all is the anonymous tenant, not an error.
  Request anonymous;
  anonymous.verb = "ping";
  auto parsed_anon = TryParseRequest(SerializeRequest(anonymous));
  ASSERT_TRUE(parsed_anon.ok());
  EXPECT_TRUE(parsed_anon->tenant.empty());

  // The tenant becomes server-side map key material, so hostile values
  // are rejected at the parse boundary.
  const std::vector<std::string> bad_fields = {
      "tenant=sp ace", "tenant=semi;colon", "tenant=",
      "tenant=" + std::string(kMaxTenantBytes + 1, 'a')};
  for (const std::string& bad : bad_fields) {
    auto r = TryParseRequest("autotest.serve.v1 ping\n" + bad + "\n\n");
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(ServeTest, OverBudgetRequestBodyIsRejectedStructurally) {
  const std::string path = "/tmp/autotest_serve_budget_body.sdc";
  auto store = MakeLoadedStore(path);
  ServeOptions options;
  options.max_request_bytes = 16;  // smaller than any real table

  const uint64_t rejections_before =
      CounterValue(metrics::kMServeBudgetRejections);
  Response response = HandlePayload(CheckPayload(), *store, options, -1);
  EXPECT_EQ(response.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(response.Field("reason"), "budget");
  EXPECT_NE(response.body.find("request body"), std::string::npos)
      << response.body;
  EXPECT_EQ(CounterValue(metrics::kMServeBudgetRejections),
            rejections_before + 1);
}

TEST_F(ServeTest, RowBudgetStopsTheParserMidTable) {
  const std::string path = "/tmp/autotest_serve_budget_rows.sdc";
  auto store = MakeLoadedStore(path);
  ServeOptions options;
  options.max_request_rows = 2;  // SampleCsv has a header + 4 data rows

  const uint64_t rejections_before =
      CounterValue(metrics::kMServeBudgetRejections);
  Response response = HandlePayload(CheckPayload(), *store, options, -1);
  EXPECT_EQ(response.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(response.Field("reason"), "budget");
  EXPECT_NE(response.body.find("rows"), std::string::npos) << response.body;
  EXPECT_EQ(CounterValue(metrics::kMServeBudgetRejections),
            rejections_before + 1);
}

TEST_F(ServeTest, CsvCapsDerivedFromBudgetAreAlwaysEnforced) {
  const std::string path = "/tmp/autotest_serve_budget_cols.sdc";
  auto store = MakeLoadedStore(path);
  ServeOptions options;
  // The cell allowance bounds max_columns handed to the parser, so one
  // absurdly wide row dies inside the parser's own cap — before the
  // fields are even materialized.
  options.max_request_cells = 3;

  Request request;
  request.verb = "check";
  request.body = "a,b,c,d,e\n1,2,3,4,5\n";
  Response response = HandlePayload(SerializeRequest(request), *store,
                                    options, -1);
  EXPECT_EQ(response.code, StatusCode::kResourceExhausted);
  EXPECT_NE(response.body.find("max_columns"), std::string::npos)
      << response.body;
}

TEST_F(ServeTest, BreakerTripsAtThresholdShedsAndRecovers) {
  const std::string path = "/tmp/autotest_serve_breaker.sdc";
  auto store = MakeLoadedStore(path);
  util::VirtualClock clock;
  util::CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  breaker_options.cooldown_micros = 1'000'000;
  TenantGovernor governor(breaker_options, &clock);
  ServeOptions options;
  options.clock = &clock;
  options.governor = &governor;

  Request bad;
  bad.verb = "check";
  bad.tenant = "bad-actor";
  bad.body = "city\n\"unterminated\n";  // kDataLoss at parse
  Request good;
  good.verb = "check";
  good.tenant = "bad-actor";
  good.body = SampleCsv();

  const uint64_t opened_before =
      CounterValue(metrics::kMServeBreakerOpenTotal);
  const uint64_t rejected_before =
      CounterValue(metrics::kMServeBreakerRejections);
  const uint64_t closed_before =
      CounterValue(metrics::kMServeBreakerClosedTotal);

  // Exactly N consecutive failing requests trip the tenant's breaker.
  for (int i = 0; i < 2; ++i) {
    Response r = HandlePayload(SerializeRequest(bad), *store, options, -1);
    EXPECT_EQ(r.code, StatusCode::kDataLoss);
  }
  EXPECT_EQ(CounterValue(metrics::kMServeBreakerOpenTotal),
            opened_before + 1);

  // Open: even a well-formed request from that tenant is shed before any
  // predictor work is scheduled.
  Response shed = HandlePayload(SerializeRequest(good), *store, options, -1);
  EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.Field("reason"), "circuit_open");
  EXPECT_EQ(CounterValue(metrics::kMServeBreakerRejections),
            rejected_before + 1);

  // Another tenant is untouched: breakers are keyed per tenant.
  Request other = good;
  other.tenant = "good-actor";
  EXPECT_EQ(HandlePayload(SerializeRequest(other), *store, options, -1).code,
            StatusCode::kOk);

  // The cooldown lapses, the probe succeeds, the breaker closes.
  clock.Advance(1'000'001);
  EXPECT_EQ(HandlePayload(SerializeRequest(good), *store, options, -1).code,
            StatusCode::kOk);
  EXPECT_EQ(CounterValue(metrics::kMServeBreakerClosedTotal),
            closed_before + 1);
  EXPECT_EQ(HandlePayload(SerializeRequest(good), *store, options, -1).code,
            StatusCode::kOk);
}

TEST_F(ServeTest, TenantQuotaShedsTheGreedyTenantOnlyAndHotReloads) {
  const std::string path = "/tmp/autotest_serve_quota.sdc";
  const std::string quota_path = "/tmp/autotest_serve_quota.conf";
  auto store = MakeLoadedStore(path);
  util::VirtualClock clock;
  TenantGovernor governor(util::CircuitBreakerOptions{}, &clock);
  WriteFile(quota_path,
            "autotest.quotas.v1\n"
            "# rate 0 = a hard allowance until reload\n"
            "greedy 0 2\n");
  ASSERT_TRUE(governor.TryLoadQuotas(quota_path).ok());
  ServeOptions options;
  options.clock = &clock;
  options.governor = &governor;

  Request greedy;
  greedy.verb = "ping";
  greedy.tenant = "greedy";
  Request polite;
  polite.verb = "ping";
  polite.tenant = "polite";

  const uint64_t rejections_before =
      CounterValue(metrics::kMServeTenantRejections);
  // The burst admits exactly two requests; the third is shed with
  // reason=quota.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(
        HandlePayload(SerializeRequest(greedy), *store, options, -1).code,
        StatusCode::kOk);
  }
  Response shed =
      HandlePayload(SerializeRequest(greedy), *store, options, -1);
  EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.Field("reason"), "quota");
  EXPECT_EQ(CounterValue(metrics::kMServeTenantRejections),
            rejections_before + 1);

  // An unlisted tenant (no `default` row) is unlimited: tenant A
  // exhausting its bucket never touches tenant B.
  EXPECT_EQ(
      HandlePayload(SerializeRequest(polite), *store, options, -1).code,
      StatusCode::kOk);

  // A malformed replacement file keeps the old table serving.
  WriteFile(quota_path, "not a quota file\n");
  EXPECT_FALSE(governor.TryReloadQuotas().ok());
  EXPECT_EQ(
      HandlePayload(SerializeRequest(greedy), *store, options, -1).code,
      StatusCode::kResourceExhausted);

  // The `reload` verb refreshes rule set AND quotas in one request; the
  // refilled allowance admits the greedy tenant again.
  WriteFile(quota_path,
            "autotest.quotas.v1\n"
            "greedy 0 5\n");
  Request reload;
  reload.verb = "reload";
  Response reloaded =
      HandlePayload(SerializeRequest(reload), *store, options, -1);
  EXPECT_EQ(reloaded.code, StatusCode::kOk) << reloaded.body;
  EXPECT_EQ(
      HandlePayload(SerializeRequest(greedy), *store, options, -1).code,
      StatusCode::kOk);
}

TEST_F(ServeTest, ConcurrentOverBudgetRequestLeavesOtherTenantsUnharmed) {
  const std::string path = "/tmp/autotest_serve_budget_conc.sdc";
  auto store = MakeLoadedStore(path);

  WorkerLatch latch;
  util::CircuitBreakerOptions breaker_options;
  TenantGovernor governor(breaker_options, &util::RealClock());
  ServeOptions options;
  options.max_inflight = 2;
  options.max_request_rows = 3;  // header + 2 data rows fit; SampleCsv not
  options.governor = &governor;
  options.phase_hook = [&latch](std::string_view phase) {
    latch.ParkOn(phase, "parse");
  };

  Server server(store.get(), options);
  util::Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  Request big;
  big.verb = "check";
  big.tenant = "heavy";
  big.body = SampleCsv();  // 5 rows: over the 3-row budget
  Request small;
  small.verb = "check";
  small.tenant = "light";
  small.body = "city,amount\nBeijing,1\n";  // 2 rows: in budget

  const uint64_t rejections_before =
      CounterValue(metrics::kMServeBudgetRejections);
  // Park both requests at the parse boundary so they are provably
  // in-flight at the same time, then release them together.
  const int big_fd = MustConnect(server.port());
  SendPayload(big_fd, SerializeRequest(big));
  const int small_fd = MustConnect(server.port());
  SendPayload(small_fd, SerializeRequest(small));
  latch.WaitParked(2);
  latch.Release();

  Response big_response = MustReadResponse(big_fd);
  Response small_response = MustReadResponse(small_fd);
  ::close(big_fd);
  ::close(small_fd);

  EXPECT_EQ(big_response.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(big_response.Field("reason"), "budget");
  EXPECT_EQ(small_response.code, StatusCode::kOk);
  EXPECT_EQ(small_response.Field("provenance"), "full");
  // Exactly the one over-budget request was rejected.
  EXPECT_EQ(CounterValue(metrics::kMServeBudgetRejections),
            rejections_before + 1);

  DrainReport report = server.StopAndDrain();
  EXPECT_EQ(report.completed, 2u);
}

}  // namespace
}  // namespace autotest::serve
