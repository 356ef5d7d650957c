// End-to-end tests for the analysis service: the JSON layer, the wire
// framing, the request router, the two-tier content-addressed cache and
// the Unix-socket transport.
//
// The load-bearing properties:
//   - hostility never crashes the daemon: malformed JSON, unknown
//     methods, framing violations and oversized payloads all degrade
//     into structured error envelopes (or a final error + disconnect for
//     unrecoverable framing),
//   - every cache tier answers byte-identically to a cold computation —
//     the service calls the same driver::runSource/runCompiled as the
//     cssamec CLI, so a cached response IS the standalone output,
//   - the disk tier survives restarts, rejects corruption and other
//     builds' artifacts, and a SIGKILLed daemon leaves a cache the next
//     daemon starts cleanly from (the tmp+rename write protocol).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <thread>

#include "src/driver/runner.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/server.h"
#include "src/support/fingerprint.h"
#include "src/support/io.h"
#include "src/support/version.h"

namespace cssame {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSource = R"(
  int x = 0, y = 0;
  lock L;
  cobegin {
    thread T0 { lock(L); x = x + 1; unlock(L); }
    thread T1 { lock(L); x = x * 2; unlock(L); y = 5; }
  }
  print(x); print(y);
)";

constexpr const char* kRacySource = R"(
  int a = 0;
  cobegin {
    thread T0 { a = 1; }
    thread T1 { a = 2; }
  }
  print(a);
)";

/// A unique, empty scratch directory; removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("cssame_svc_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

std::string makeRequest(const std::string& method, const std::string& source,
                        service::Json options = service::Json::object(),
                        int id = 1) {
  service::Json req = service::Json::object();
  req.set("id", id)
      .set("method", method)
      .set("file", "test.cp")
      .set("source", source)
      .set("options", std::move(options));
  return req.write();
}

service::Json parseOk(const std::string& payload) {
  Expected<service::Json> j = service::parseJson(payload);
  EXPECT_TRUE(j.ok()) << payload;
  return j.ok() ? *j : service::Json();
}

/// A pid guaranteed dead and reaped: sweepTmp() skips tmp files whose
/// embedded writer pid is alive, so sweep tests must name a writer that
/// verifiably isn't. Fork a trivial child and wait for it — its pid is
/// unused until the kernel wraps around, far beyond the test's lifetime.
pid_t deadPid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

/// Sends one request payload over an established connection and returns
/// the parsed response envelope.
service::Json roundTrip(support::FdStream& conn, const std::string& payload) {
  EXPECT_TRUE(
      service::writeFrame(conn, payload, service::kDefaultMaxPayload).ok());
  std::string response;
  EXPECT_EQ(service::readFrame(conn, response, service::kDefaultMaxPayload),
            service::FrameStatus::Ok);
  return parseOk(response);
}

// ---------------------------------------------------------------------------
// JSON

TEST(ServiceJson, WriteParseRoundTrip) {
  service::Json inner = service::Json::array();
  inner.push(1).push(-2).push(true).push(service::Json());
  service::Json obj = service::Json::object();
  obj.set("s", "he\"llo\n\tworld").set("n", std::int64_t{1} << 60)
      .set("d", 1.5).set("a", std::move(inner));
  const std::string text = obj.write();
  service::Json back = parseOk(text);
  EXPECT_EQ(back.write(), text);
  EXPECT_EQ(back.getString("s", ""), "he\"llo\n\tworld");
  EXPECT_EQ(back.getInt("n", 0), std::int64_t{1} << 60);
  EXPECT_EQ(back.get("a").items().size(), 4u);
}

TEST(ServiceJson, UnicodeEscapesBecomeUtf8) {
  service::Json j = parseOk(R"({"k":"\u0041\u00e9"})");
  EXPECT_EQ(j.getString("k", ""), "A\xc3\xa9");
}

TEST(ServiceJson, MalformedInputsFailStructurally) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "1 2", "tru", "\"\\q\"",
                          "{\"a\" 1}", ""}) {
    Expected<service::Json> r = service::parseJson(bad);
    EXPECT_FALSE(r.ok()) << bad;
  }
}

TEST(ServiceJson, DepthBombIsRejectedNotOverflowed) {
  std::string bomb(500, '[');
  bomb += std::string(500, ']');
  Expected<service::Json> r = service::parseJson(bomb);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.fault().message.find("nesting"), std::string::npos);
}

TEST(ServiceJson, LastDuplicateKeyWins) {
  service::Json j = parseOk(R"({"a":1,"a":2})");
  EXPECT_EQ(j.getInt("a", 0), 2);
}

// ---------------------------------------------------------------------------
// Framing

TEST(ServiceProtocol, FrameRoundTripOverSocketpair) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  const std::string payload = "{\"hello\":\"world\"}";
  ASSERT_TRUE(service::writeFrame(a, payload, 1024).ok());
  std::string got;
  EXPECT_EQ(service::readFrame(b, got, 1024), service::FrameStatus::Ok);
  EXPECT_EQ(got, payload);
}

TEST(ServiceProtocol, CleanEofAfterPeerCloses) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  a.close();
  std::string got;
  EXPECT_EQ(service::readFrame(b, got, 1024), service::FrameStatus::Eof);
}

TEST(ServiceProtocol, BadMagicIsRejected) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  const char junk[8] = {'n', 'o', 'p', 'e', 1, 0, 0, 0};
  ASSERT_TRUE(a.writeAll(junk, sizeof junk).ok());
  std::string got;
  EXPECT_EQ(service::readFrame(b, got, 1024), service::FrameStatus::BadMagic);
}

TEST(ServiceProtocol, OversizedLengthIsRejectedBeforeAllocation) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  // Magic + a 256 MiB length; the reader must refuse without resizing.
  const unsigned char header[8] = {'c', 's', 'a', 'J', 0, 0, 0, 0x10};
  ASSERT_TRUE(a.writeAll(header, sizeof header).ok());
  std::string got;
  EXPECT_EQ(service::readFrame(b, got, 1 << 20),
            service::FrameStatus::TooLarge);
}

TEST(ServiceProtocol, TruncatedPayloadIsAnError) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  const unsigned char header[8] = {'c', 's', 'a', 'J', 100, 0, 0, 0};
  ASSERT_TRUE(a.writeAll(header, sizeof header).ok());
  ASSERT_TRUE(a.writeAll("only this", 9).ok());
  a.close();  // EOF 91 bytes early
  std::string got;
  EXPECT_EQ(service::readFrame(b, got, 1024),
            service::FrameStatus::Truncated);
}

TEST(ServiceProtocol, WriterEnforcesTheCapToo) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  EXPECT_FALSE(
      service::writeFrame(pair->first, std::string(2048, 'x'), 1024).ok());
}

TEST(ServiceProtocol, ConnectToMissingSocketFailsWithClearFault) {
  // The client-side error a user sees first: no daemon behind the path.
  // The fault must carry the path so the message is actionable.
  ScratchDir dir("nosock");
  const std::string sock = (dir.path / "no-daemon-here.sock").string();
  Expected<support::FdStream> conn = support::connectUnix(sock);
  ASSERT_FALSE(conn.ok());
  EXPECT_NE(conn.fault().message.find("no-daemon-here"), std::string::npos);
}

TEST(ServiceProtocol, DeadlineReadDeliversPromptFrames) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  const std::string payload = "{\"prompt\":true}";
  ASSERT_TRUE(service::writeFrameDeadline(a, payload, 1024,
                                          support::Deadline::in(5000))
                  .ok());
  std::string got;
  EXPECT_EQ(service::readFrameDeadline(b, got, 1024,
                                       support::Deadline::in(5000)),
            service::FrameStatus::Ok);
  EXPECT_EQ(got, payload);
}

TEST(ServiceProtocol, DeadlineReadTimesOutOnStalledPeer) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  // Half a header, then silence: mid-frame stall, not EOF.
  ASSERT_TRUE(a.writeAll("csaJ", 4).ok());
  std::string got;
  EXPECT_EQ(service::readFrameDeadline(b, got, 1024,
                                       support::Deadline::in(50)),
            service::FrameStatus::TimedOut);
}

TEST(ServiceProtocol, DeadlineWriteTimesOutWhenPeerStopsReading) {
  Expected<std::pair<support::FdStream, support::FdStream>> pair =
      support::streamPair();
  ASSERT_TRUE(pair.ok());
  // Nobody drains the other end: a payload far beyond the socket buffer
  // must surface as a deadline fault, not a parked thread.
  const std::size_t big = 32u << 20;
  Status s = service::writeFrameDeadline(pair->first,
                                         std::string(big, 'x'), big + 1,
                                         support::Deadline::in(50));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(support::isDeadlineFault(s.fault()));
}

// ---------------------------------------------------------------------------
// Router: hostile inputs become structured errors, never crashes

TEST(ServiceServer, MalformedJsonYieldsStructuredError) {
  service::Server server({});
  service::Json resp = parseOk(server.handlePayload("{this is not json"));
  EXPECT_FALSE(resp.getBool("ok", true));
  EXPECT_EQ(resp.get("error").getString("kind", ""), "parse-error");
}

TEST(ServiceServer, UnknownMethodYieldsStructuredError) {
  service::Server server({});
  service::Json resp =
      parseOk(server.handlePayload(makeRequest("frobnicate", kSource)));
  EXPECT_FALSE(resp.getBool("ok", true));
  EXPECT_EQ(resp.get("error").getString("kind", ""), "unknown-method");
  EXPECT_EQ(resp.getInt("id", -1), 1);  // id echoed even on errors
}

TEST(ServiceServer, MissingSourceYieldsStructuredError) {
  service::Server server({});
  service::Json req = service::Json::object();
  req.set("id", 7).set("method", "analyze");
  service::Json resp = parseOk(server.handlePayload(req.write()));
  EXPECT_FALSE(resp.getBool("ok", true));
  EXPECT_EQ(resp.get("error").getString("kind", ""), "invalid-request");
  EXPECT_EQ(resp.getInt("id", -1), 7);
}

TEST(ServiceServer, NonObjectRequestYieldsStructuredError) {
  service::Server server({});
  for (const char* req : {"[1,2,3]", "42", "\"analyze\"", "null"}) {
    service::Json resp = parseOk(server.handlePayload(req));
    EXPECT_FALSE(resp.getBool("ok", true)) << req;
  }
}

TEST(ServiceServer, UnparseableSourceIsAnOkEnvelopeWithExitCode) {
  // A source that fails to parse is a *successful* request whose result
  // carries the diagnostics and exit code 1, exactly like the CLI.
  service::Server server({});
  service::Json resp =
      parseOk(server.handlePayload(makeRequest("analyze", "int int int")));
  ASSERT_TRUE(resp.getBool("ok", false));
  EXPECT_EQ(resp.get("result").getInt("code", 0), 1);
  EXPECT_NE(resp.get("result").getString("err", "").find("error"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Byte-identity with the standalone runner, across methods and tiers

driver::RunOptions optionsFor(const service::Json& options) {
  driver::RunOptions o;
  o.dumpForm = options.getBool("dumpForm", false);
  o.doCsan = options.getBool("csan", false);
  o.doVrange = options.getBool("vrange", false);
  o.doRaces = options.getBool("races", false);
  o.doRun = options.getBool("run", false);
  o.doOpt = options.getBool("opt", false);
  o.doTso = options.getBool("tso", false);
  (void)support::parseMemoryModel(options.getString("memoryModel", "sc"),
                                  o.memoryModel);
  o.seed = static_cast<std::uint64_t>(options.getInt("seed", 1));
  return o;
}

TEST(ServiceServer, ResponsesMatchStandaloneRunnerBytewise) {
  service::Server server({});
  std::vector<service::Json> optionSets;
  optionSets.push_back(service::Json::object());  // plain analyze
  optionSets.push_back(service::Json::object().set("dumpForm", true));
  optionSets.push_back(service::Json::object().set("csan", true));
  optionSets.push_back(
      service::Json::object().set("csan", true).set("vrange", true));
  optionSets.push_back(service::Json::object().set("races", true));
  optionSets.push_back(
      service::Json::object().set("run", true).set("seed", 3));
  optionSets.push_back(service::Json::object().set("opt", true));
  optionSets.push_back(service::Json::object().set("tso", true));
  optionSets.push_back(service::Json::object()
                           .set("run", true)
                           .set("seed", 3)
                           .set("memoryModel", "tso"));

  for (const char* source : {kSource, kRacySource}) {
    for (const service::Json& options : optionSets) {
      const driver::RunOutput expect =
          driver::runSource(source, "test.cp", optionsFor(options));
      service::Json copy = options;  // makeRequest consumes
      service::Json resp = parseOk(
          server.handlePayload(makeRequest("analyze", source, copy)));
      ASSERT_TRUE(resp.getBool("ok", false)) << options.write();
      const service::Json& result = resp.get("result");
      EXPECT_EQ(result.getString("out", "?"), expect.out) << options.write();
      EXPECT_EQ(result.getString("err", "?"), expect.err) << options.write();
      EXPECT_EQ(result.getInt("code", -1), expect.code) << options.write();
    }
  }
}

TEST(ServiceServer, CsanAndVrangeMethodsForceTheirAnalyses) {
  service::Server server({});
  driver::RunOptions o;
  o.doCsan = true;
  const driver::RunOutput expect = driver::runSource(kSource, "test.cp", o);
  service::Json resp =
      parseOk(server.handlePayload(makeRequest("csan", kSource)));
  ASSERT_TRUE(resp.getBool("ok", false));
  EXPECT_EQ(resp.get("result").getString("err", "?"), expect.err);

  driver::RunOptions v;
  v.doVrange = true;
  const driver::RunOutput vexpect = driver::runSource(kSource, "test.cp", v);
  service::Json vresp =
      parseOk(server.handlePayload(makeRequest("vrange", kSource)));
  ASSERT_TRUE(vresp.getBool("ok", false));
  EXPECT_EQ(vresp.get("result").getString("err", "?"), vexpect.err);
}

// ---------------------------------------------------------------------------
// Cache tiers

TEST(ServiceCache, RepeatRequestHitsMemoryTier) {
  service::Server server({});
  service::Json first =
      parseOk(server.handlePayload(makeRequest("analyze", kSource)));
  service::Json second =
      parseOk(server.handlePayload(makeRequest("analyze", kSource)));
  EXPECT_EQ(first.getString("cached", "?"), "miss");
  EXPECT_EQ(second.getString("cached", "?"), "memory");
  EXPECT_EQ(second.get("result").write(), first.get("result").write());
  EXPECT_EQ(server.cache().counters().responseHits.value(), 1u);
  EXPECT_EQ(server.cache().counters().misses.value(), 1u);
}

TEST(ServiceCache, MemoryModelKeysDiverge) {
  // An SC-cached response must never be served to a TSO request (or vice
  // versa): the memory model is part of RunOptions::cacheKey(), so the
  // request fingerprints differ even for identical source bytes.
  driver::RunOptions sc, tso;
  tso.memoryModel = support::MemoryModel::TSO;
  EXPECT_NE(sc.cacheKey(), tso.cacheKey());

  service::Server server({});
  service::Json runSc = service::Json::object().set("run", true);
  service::Json runTso =
      service::Json::object().set("run", true).set("memoryModel", "tso");
  service::Json first =
      parseOk(server.handlePayload(makeRequest("analyze", kSource, runSc)));
  service::Json second =
      parseOk(server.handlePayload(makeRequest("analyze", kSource, runTso)));
  EXPECT_EQ(first.getString("cached", "?"), "miss");
  // Same source, same flags, different model: a fresh key, not a hit.
  EXPECT_EQ(second.getString("cached", "?"), "miss");
}

TEST(ServiceCache, DporKeysDiverge) {
  // The dpor flag changes the reduction counters carried by explore
  // results (and the --explore stats lines), so it is part of both the
  // RunOptions cache key and the explore request fingerprint: a
  // dpor-off request must never be served a dpor-on cached payload.
  driver::RunOptions on, off;
  off.dpor = false;
  EXPECT_NE(on.cacheKey(), off.cacheKey());

  service::Server server({});
  service::Json reduced =
      parseOk(server.handlePayload(makeRequest("explore", kRacySource)));
  service::Json full = parseOk(server.handlePayload(makeRequest(
      "explore", kRacySource, service::Json::object().set("dpor", false))));
  ASSERT_TRUE(reduced.getBool("ok", false));
  ASSERT_TRUE(full.getBool("ok", false));
  EXPECT_EQ(reduced.getString("cached", "?"), "miss");
  // Same source, dpor off: a fresh key, not a hit.
  EXPECT_EQ(full.getString("cached", "?"), "miss");
  // The exactness contract: reduced and unreduced agree on everything a
  // client may act on; only the reduction metadata differs.
  const service::Json& r = reduced.get("result");
  const service::Json& f = full.get("result");
  EXPECT_EQ(r.get("outputs").write(), f.get("outputs").write());
  EXPECT_EQ(r.getBool("anyDeadlock", true), f.getBool("anyDeadlock", true));
  EXPECT_TRUE(r.get("dpor").getBool("enabled", false));
  EXPECT_FALSE(f.get("dpor").getBool("enabled", true));
  EXPECT_EQ(f.get("dpor").getInt("depQueries", -1), 0);
  // The daemon's aggregate counters saw only the reduced run's queries.
  EXPECT_GE(server.counters().dporDepQueries.value(), 1u);
}

TEST(ServiceCache, RelatedRequestReusesLiveCompilation) {
  // analyze then csan on the same source: different response keys, same
  // source fingerprint — the second request must reuse the analyzed
  // program instead of re-running the pipeline.
  service::Server server({});
  (void)server.handlePayload(makeRequest("analyze", kSource));
  service::Json resp =
      parseOk(server.handlePayload(makeRequest("csan", kSource)));
  ASSERT_TRUE(resp.getBool("ok", false));
  EXPECT_EQ(resp.getString("cached", "?"), "compilation");
  EXPECT_EQ(server.cache().counters().compilationHits.value(), 1u);

  driver::RunOptions o;
  o.doCsan = true;
  EXPECT_EQ(resp.get("result").getString("err", "?"),
            driver::runSource(kSource, "test.cp", o).err);
}

TEST(ServiceCache, EvictionRecomputesIdentically) {
  service::ServerOptions opts;
  opts.memEntries = 1;
  service::Server server(opts);
  service::Json first =
      parseOk(server.handlePayload(makeRequest("analyze", kSource)));
  (void)server.handlePayload(makeRequest("analyze", kRacySource));
  service::Json again =
      parseOk(server.handlePayload(makeRequest("analyze", kSource)));
  EXPECT_EQ(again.getString("cached", "?"), "miss");  // evicted
  EXPECT_EQ(again.get("result").write(), first.get("result").write());
  EXPECT_GE(server.cache().counters().responseEvictions.value(), 1u);
}

TEST(ServiceCache, ZeroCapacityDisablesMemoryTier) {
  service::ServerOptions opts;
  opts.memEntries = 0;
  service::Server server(opts);
  (void)server.handlePayload(makeRequest("analyze", kSource));
  service::Json second =
      parseOk(server.handlePayload(makeRequest("analyze", kSource)));
  EXPECT_EQ(second.getString("cached", "?"), "miss");
}

TEST(ServiceCache, DiskTierSurvivesRestart) {
  ScratchDir dir("disk_restart");
  service::ServerOptions opts;
  opts.cacheDir = dir.path.string();
  std::string firstResult;
  {
    service::Server server(opts);
    service::Json first =
        parseOk(server.handlePayload(makeRequest("analyze", kSource)));
    firstResult = first.get("result").write();
  }
  service::Server restarted(opts);
  service::Json warm =
      parseOk(restarted.handlePayload(makeRequest("analyze", kSource)));
  EXPECT_EQ(warm.getString("cached", "?"), "disk");
  EXPECT_EQ(warm.get("result").write(), firstResult);
  EXPECT_EQ(restarted.cache().counters().diskHits.value(), 1u);
}

TEST(ServiceCache, CorruptedDiskEntriesAreRejectedAndRecomputed) {
  ScratchDir dir("disk_corrupt");
  service::ServerOptions opts;
  opts.cacheDir = dir.path.string();
  std::string expected;
  {
    service::Server server(opts);
    expected = parseOk(server.handlePayload(makeRequest("analyze", kSource)))
                   .get("result")
                   .write();
  }
  // Flip a payload byte in every entry; the checksum must catch it.
  std::size_t corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::fstream f(entry.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('~');
    ++corrupted;
  }
  ASSERT_GE(corrupted, 1u);

  service::Server restarted(opts);
  service::Json resp =
      parseOk(restarted.handlePayload(makeRequest("analyze", kSource)));
  EXPECT_EQ(resp.getString("cached", "?"), "miss");
  EXPECT_EQ(resp.get("result").write(), expected);
  EXPECT_GE(restarted.cache().disk().corruptRejected.value(), 1u);
}

TEST(ServiceCache, OtherBuildsArtifactsAreRejected) {
  ScratchDir dir("disk_build");
  service::ServerOptions opts;
  opts.cacheDir = dir.path.string();
  {
    service::Server server(opts);
    (void)server.handlePayload(makeRequest("analyze", kSource));
  }
  // Rewrite each entry's header claiming a different build fingerprint.
  std::size_t rewritten = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string header;
    std::getline(in, header);
    std::string rest((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::size_t pos = header.find(support::buildFingerprint());
    ASSERT_NE(pos, std::string::npos);
    header.replace(pos, support::buildFingerprint().size(),
                   std::string(32, 'f'));
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << header << '\n' << rest;
    ++rewritten;
  }
  ASSERT_GE(rewritten, 1u);

  service::Server restarted(opts);
  service::Json resp =
      parseOk(restarted.handlePayload(makeRequest("analyze", kSource)));
  EXPECT_EQ(resp.getString("cached", "?"), "miss");
  EXPECT_GE(restarted.cache().disk().buildRejected.value(), 1u);
}

TEST(ServiceCache, StartupSweepsLeftoverTmpFiles) {
  ScratchDir dir("disk_sweep");
  const fs::path tmp =
      dir.path / ("deadbeef.art.tmp." + std::to_string(deadPid()) + ".0");
  std::ofstream(tmp) << "partial write from a crashed daemon";
  ASSERT_TRUE(fs::exists(tmp));
  service::ServerOptions opts;
  opts.cacheDir = dir.path.string();
  service::Server server(opts);
  EXPECT_FALSE(fs::exists(tmp));
}

TEST(ServiceCache, UnwritableDiskDegradesToMemoryOnlyWithoutFailing) {
  ScratchDir dir("disk_degrade");
  service::ServerOptions opts;
  opts.cacheDir = dir.path.string();
  service::Server server(opts);
  // Yank the directory out from under the store: every insert's tmp-file
  // open now fails (ENOENT — a non-fatal errno, so the store tolerates
  // kWriteFailureLimit consecutive failures before giving up on disk).
  fs::remove_all(dir.path);
  const unsigned limit = service::DiskStore::kWriteFailureLimit;
  for (unsigned i = 0; i <= limit; ++i) {
    const std::string source =
        "int v" + std::to_string(i) + " = " + std::to_string(i) +
        "; print(v" + std::to_string(i) + ");";
    service::Json resp =
        parseOk(server.handlePayload(makeRequest("analyze", source)));
    // Requests never fail on cache-write trouble.
    ASSERT_TRUE(resp.getBool("ok", false)) << i;
  }
  EXPECT_FALSE(server.cache().disk().writesEnabled());
  EXPECT_EQ(server.cache().disk().degraded.value(), 1u);
  EXPECT_GE(server.cache().disk().writeFailed.value(), limit);
  // The memory tiers still serve, and stats report the degrade.
  service::Json warm = parseOk(
      server.handlePayload(makeRequest("analyze", "int v0 = 0; print(v0);")));
  EXPECT_EQ(warm.getString("cached", "?"), "memory");
  service::Json stats =
      parseOk(server.handlePayload(R"({"id":1,"method":"stats"})"));
  EXPECT_EQ(stats.get("result").get("cache").getInt("diskDegraded", 0), 1);
  dir.path.clear();  // nothing left to clean up
}

TEST(ServiceCache, FatalWriteErrnoDegradesImmediately) {
  // EACCES/EROFS/ENOSPC-class failures don't get the consecutive-failure
  // grace: the first one flips the store to memory-only. Root bypasses
  // permission bits, so drive noteWriteFailure through a file standing
  // where the tmp file's parent directory should be (ENOTDIR is not in
  // the fatal set — use the public insert path against a directory that
  // is really a file only when not running as root).
  ScratchDir dir("disk_fatal");
  service::DiskStore store(dir.path.string());
  ASSERT_TRUE(store.writesEnabled());
  if (::geteuid() != 0) {
    fs::permissions(dir.path, fs::perms::owner_read | fs::perms::owner_exec);
    store.insert(support::fingerprintBytes("k"), "payload");
    EXPECT_FALSE(store.writesEnabled());
    EXPECT_EQ(store.degraded.value(), 1u);
    fs::permissions(dir.path, fs::perms::owner_all);
  } else {
    // As root, exhaust the non-fatal path instead so the degrade is
    // still exercised end to end.
    fs::remove_all(dir.path);
    for (unsigned i = 0; i <= service::DiskStore::kWriteFailureLimit; ++i)
      store.insert(support::fingerprintBytes(std::to_string(i)), "payload");
    EXPECT_FALSE(store.writesEnabled());
    EXPECT_EQ(store.degraded.value(), 1u);
  }
}

TEST(ServiceCache, SweepSparesLiveSiblingsTmpFiles) {
  // Fleet workers share one cache directory; a restarting worker's
  // startup sweep must not tear a live sibling's in-flight tmp write out
  // from under its rename. Our own pid stands in for the live sibling.
  ScratchDir dir("disk_sweep_live");
  const fs::path live =
      dir.path / ("feedf00d.art.tmp." + std::to_string(::getpid()) + ".7");
  const fs::path dead =
      dir.path / ("deadbeef.art.tmp." + std::to_string(deadPid()) + ".0");
  std::ofstream(live) << "sibling mid-insert";
  std::ofstream(dead) << "crashed writer";
  service::ServerOptions opts;
  opts.cacheDir = dir.path.string();
  service::Server server(opts);
  EXPECT_TRUE(fs::exists(live));
  EXPECT_FALSE(fs::exists(dead));
}

// ---------------------------------------------------------------------------
// Stats, explore, version

TEST(ServiceServer, StatsReportsCountersAndBuild) {
  service::Server server({});
  (void)server.handlePayload(makeRequest("analyze", kSource));
  (void)server.handlePayload(makeRequest("analyze", kSource));
  service::Json resp = parseOk(server.handlePayload(
      R"({"id":9,"method":"stats"})"));
  ASSERT_TRUE(resp.getBool("ok", false));
  const service::Json& result = resp.get("result");
  EXPECT_EQ(result.getString("version", ""), support::versionString());
  EXPECT_EQ(result.getString("build", ""), support::buildFingerprint());
  EXPECT_EQ(result.getInt("requests", 0), 3);
  EXPECT_EQ(result.get("cache").getInt("responseHits", -1), 1);
  EXPECT_EQ(result.get("cache").getInt("misses", -1), 1);
}

TEST(ServiceServer, ExploreReturnsOutputsAndCaches) {
  service::Server server({});
  service::Json resp =
      parseOk(server.handlePayload(makeRequest("explore", kRacySource)));
  ASSERT_TRUE(resp.getBool("ok", false));
  const service::Json& result = resp.get("result");
  EXPECT_TRUE(result.getBool("complete", false));
  // The racy program prints 1 or 2 depending on schedule.
  EXPECT_EQ(result.get("outputs").items().size(), 2u);
  service::Json warm =
      parseOk(server.handlePayload(makeRequest("explore", kRacySource)));
  EXPECT_EQ(warm.getString("cached", "?"), "memory");
  EXPECT_EQ(warm.get("result").write(), result.write());
}

// A racy program whose statements sit on their own lines, so the repair
// engine's wrap candidates apply (kRacySource's one-line thread bodies
// share their line with the thread header and are deliberately
// unfixable).
constexpr const char* kFixableSource = R"(int a;
cobegin {
  thread T0 {
    a = a + 1;
  }
  thread T1 {
    a = a + 2;
  }
}
print(a);
)";

TEST(ServiceServer, FixRepairsVerifiesAndCaches) {
  service::Server server({});
  service::Json resp =
      parseOk(server.handlePayload(makeRequest("fix", kFixableSource)));
  ASSERT_TRUE(resp.getBool("ok", false)) << resp.write();
  EXPECT_EQ(resp.getString("method", "?"), "fix");
  const service::Json& result = resp.get("result");
  EXPECT_EQ(result.getString("status", "?"), "fixed");
  EXPECT_EQ(result.getInt("code", -1), 0);
  EXPECT_TRUE(result.getBool("raceFree", false));
  EXPECT_TRUE(result.getBool("deadlockFree", false));
  EXPECT_EQ(result.get("applied").items().size(), 1u);
  EXPECT_TRUE(result.get("unfixed").items().empty());
  // The patched source is real program text with the new protection.
  const std::string patched = result.getString("patchedSource", "");
  EXPECT_NE(patched.find("lock __fix0;"), std::string::npos) << patched;
  EXPECT_FALSE(result.get("diff").items().empty());
  // The embedded report is the exact bytes `cssamec --fix` prints.
  driver::RunOptions o;
  o.doFix = true;
  const driver::RunOutput standalone =
      driver::runSource(kFixableSource, "test.cp", o);
  EXPECT_EQ(result.getString("report", "?"), standalone.out);

  // Warm path: byte-identical response from the memory tier.
  service::Json warm =
      parseOk(server.handlePayload(makeRequest("fix", kFixableSource)));
  EXPECT_EQ(warm.getString("cached", "?"), "memory");
  EXPECT_EQ(warm.get("result").write(), result.write());

  // The repair.* counter family reached the stats JSON (and was not
  // double-counted by the cache hit).
  service::Json stats =
      parseOk(server.handlePayload(R"({"id":9,"method":"stats"})"));
  const service::Json& s = stats.get("result");
  EXPECT_EQ(s.get("methods").getInt("fix", -1), 2);
  EXPECT_EQ(s.get("repair").getInt("targets", -1), 1);
  EXPECT_EQ(s.get("repair").getInt("candidatesVerified", -1), 1);
  EXPECT_GE(s.get("repair").getInt("candidatesTried", -1), 1);
}

TEST(ServiceServer, FixNoSafeFixIsAnOkEnvelopeWithExitCode) {
  service::Server server({});
  service::Json resp =
      parseOk(server.handlePayload(makeRequest("fix", kRacySource)));
  ASSERT_TRUE(resp.getBool("ok", false)) << resp.write();
  const service::Json& result = resp.get("result");
  EXPECT_EQ(result.getString("status", "?"), "no-safe-fix");
  EXPECT_EQ(result.getInt("code", -1), 1);
  EXPECT_TRUE(result.get("applied").items().empty());
  EXPECT_FALSE(result.get("unfixed").items().empty());
}

TEST(ServiceServer, FixValidatesParamsLikeMemoryModel) {
  service::Server server({});
  // Non-string fix option.
  service::Json bad = service::Json::object().set("fix", 7);
  service::Json resp = parseOk(
      server.handlePayload(makeRequest("fix", kFixableSource, bad)));
  EXPECT_FALSE(resp.getBool("ok", true));
  EXPECT_EQ(resp.get("error").getString("kind", "?"), "invalid-request");
  // Unknown fix target, same error contract as a bad memoryModel.
  service::Json bogus = service::Json::object().set("fix", "everything");
  resp = parseOk(
      server.handlePayload(makeRequest("fix", kFixableSource, bogus)));
  EXPECT_FALSE(resp.getBool("ok", true));
  EXPECT_EQ(resp.get("error").getString("kind", "?"), "invalid-request");
  EXPECT_NE(resp.get("error").getString("message", "").find(
                "unknown fix target"),
            std::string::npos)
      << resp.write();
  // The same validation guards the analysis methods' options too.
  resp = parseOk(
      server.handlePayload(makeRequest("csan", kFixableSource, bogus)));
  EXPECT_FALSE(resp.getBool("ok", true));
  EXPECT_EQ(resp.get("error").getString("kind", "?"), "invalid-request");
}

TEST(ServiceCache, FixKeysDivergeFromReadMethods) {
  // A fix response must never be served to a csan request (or any other
  // read method) for the same source: doFix and the fix target are part
  // of cacheKey() — v5 keys — so the request fingerprints differ.
  driver::RunOptions read, fix;
  fix.doFix = true;
  EXPECT_NE(read.cacheKey(), fix.cacheKey());
  driver::RunOptions fixRace = fix;
  fixRace.fixTarget = "race";
  EXPECT_NE(fix.cacheKey(), fixRace.cacheKey());

  service::Server server({});
  service::Json first =
      parseOk(server.handlePayload(makeRequest("csan", kFixableSource)));
  service::Json second =
      parseOk(server.handlePayload(makeRequest("fix", kFixableSource)));
  service::Json third = parseOk(server.handlePayload(makeRequest(
      "fix", kFixableSource, service::Json::object().set("fix", "race"))));
  ASSERT_TRUE(first.getBool("ok", false));
  ASSERT_TRUE(second.getBool("ok", false));
  ASSERT_TRUE(third.getBool("ok", false));
  EXPECT_EQ(first.getString("cached", "?"), "miss");
  // Same source: fresh keys, not hits against the csan entry.
  EXPECT_EQ(second.getString("cached", "?"), "miss");
  // Same source, same method, narrower target: a fresh key again.
  EXPECT_EQ(third.getString("cached", "?"), "miss");
}

// ---------------------------------------------------------------------------
// Envelopes: a result payload is spliced after "result": as serialized,
// not parsed and re-written. Every caching method on every tier must give
// exactly the bytes of the parse-and-rewrite rendering.

/// The success envelope as it was rendered before splicing: the payload
/// parsed and written back into the envelope object.
std::string rewrittenEnvelope(int id, const std::string& method,
                              const std::string& tier,
                              const std::string& payload) {
  Expected<service::Json> result = service::parseJson(payload);
  EXPECT_TRUE(result.ok()) << payload;
  if (!result) return {};
  service::Json env = service::Json::object();
  env.set("id", id)
      .set("ok", true)
      .set("method", method)
      .set("cached", tier)
      .set("result", std::move(*result));
  return env.write();
}

/// The payload of the disk artifact at `path` (everything after the
/// header line).
std::string artifactPayload(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string header;
  std::getline(in, header);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The artifact files in `dir` that are not in `seen`; adds them to it.
std::vector<fs::path> newArtifacts(const fs::path& dir,
                                   std::set<fs::path>& seen) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".art" &&
        seen.insert(entry.path()).second)
      out.push_back(entry.path());
  return out;
}

TEST(ServiceEnvelope, SplicedEnvelopesMatchRewrittenPayloadsOnEveryTier) {
  ScratchDir dir("envelope");
  service::ServerOptions opts;
  opts.cacheDir = dir.path.string();

  struct Case {
    std::string method;
    std::string source;
    service::Json options;
    /// Options of a second request on the same source that the live
    /// compilation answers (analysis methods only).
    std::optional<service::Json> followUp;
  };
  const auto options = [] { return service::Json::object(); };
  std::vector<Case> cases;
  cases.push_back({"analyze", kSource,
                   options().set("races", true).set("dumpForm", true),
                   options().set("csan", true).set("json", true)});
  cases.push_back({"analyze", kRacySource,
                   options().set("csan", true).set("vrange", true).set(
                       "pointsTo", true),
                   options().set("dumpPfg", true)});
  cases.push_back({"csan", kSource, options(), options().set("races", true)});
  cases.push_back({"vrange", kRacySource, options(),
                   options().set("sarif", true)});
  cases.push_back({"explore", kRacySource,
                   options().set("detectRaces", true).set("recordValues",
                                                          true),
                   std::nullopt});
  cases.push_back({"fix", kFixableSource, options(), std::nullopt});
  cases.push_back({"fix", kRacySource, options().set("fix", "race"),
                   std::nullopt});

  struct Served {
    std::string request, method;
    fs::path artifact;
  };
  std::vector<Served> served;
  std::set<fs::path> seen;
  std::size_t tiers[4] = {0, 0, 0, 0};  // miss, memory, compilation, disk
  constexpr int kId = 100;
  {
    service::Server server(opts);
    auto check = [&](const std::string& method, const std::string& request,
                     const std::string& tier, std::size_t tierIndex) {
      const std::string response = server.handlePayload(request);
      const std::vector<fs::path> added = newArtifacts(dir.path, seen);
      ASSERT_EQ(added.size(), tier == "memory" ? 0u : 1u) << response;
      const fs::path artifact =
          added.empty() ? served.back().artifact : added.front();
      EXPECT_EQ(response, rewrittenEnvelope(kId, method, tier,
                                            artifactPayload(artifact)))
          << method << " on the " << tier << " tier";
      ++tiers[tierIndex];
      if (tier != "memory") served.push_back({request, method, artifact});
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      // A per-case comment keeps each case's first request a miss.
      const std::string source =
          c.source + "// case " + std::to_string(i) + "\n";
      const std::string request = makeRequest(c.method, source, c.options, kId);
      check(c.method, request, "miss", 0);
      check(c.method, request, "memory", 1);
      if (c.followUp)
        check(c.method, makeRequest(c.method, source, *c.followUp, kId),
              "compilation", 2);
    }
  }
  // A restarted daemon answers every request from the disk tier.
  service::Server restarted(opts);
  for (const Served& s : served) {
    EXPECT_EQ(restarted.handlePayload(s.request),
              rewrittenEnvelope(kId, s.method, "disk",
                                artifactPayload(s.artifact)))
        << s.method << " on the disk tier";
    ++tiers[3];
  }
  EXPECT_EQ(restarted.cache().counters().diskHits.value(), served.size());
  for (std::size_t n : tiers) EXPECT_GE(n, 4u);
}

TEST(ServiceEnvelope, DiskPayloadThatIsNotJsonIsRejectedAndRecomputed) {
  ScratchDir dir("envelope_notjson");
  service::ServerOptions opts;
  opts.cacheDir = dir.path.string();
  const std::string request = makeRequest("csan", kSource);
  std::string expected;
  {
    service::Server server(opts);
    expected = server.handlePayload(request);
  }
  // Replace the payload with bytes that are not JSON under a header that
  // is otherwise valid: right build, right key, matching checksum.
  std::set<fs::path> seen;
  const std::vector<fs::path> artifacts = newArtifacts(dir.path, seen);
  ASSERT_EQ(artifacts.size(), 1u);
  std::string magic, version, build, key;
  {
    std::ifstream in(artifacts[0], std::ios::binary);
    in >> magic >> version >> build >> key;
  }
  const std::string bogus = R"({"out":"truncated)";
  {
    std::ofstream out(artifacts[0], std::ios::binary | std::ios::trunc);
    out << magic << ' ' << version << ' ' << build << ' ' << key << ' '
        << bogus.size() << ' '
        << support::toHex(support::fingerprintBytes(bogus)) << '\n'
        << bogus;
  }

  service::Server restarted(opts);
  const std::string recomputed = restarted.handlePayload(request);
  EXPECT_EQ(restarted.cache().disk().corruptRejected.value(), 1u);
  EXPECT_EQ(restarted.cache().counters().diskHits.value(), 0u);
  EXPECT_EQ(parseOk(recomputed).getString("cached", "?"), "miss");
  EXPECT_EQ(parseOk(recomputed).get("result").write(),
            parseOk(expected).get("result").write());
  // The memory tier holds the recomputed payload, never the bogus one.
  const std::string again = restarted.handlePayload(request);
  EXPECT_EQ(parseOk(again).getString("cached", "?"), "memory");
  EXPECT_EQ(parseOk(again).get("result").write(),
            parseOk(expected).get("result").write());
  // And the artifact on disk was replaced by the recomputed one.
  EXPECT_EQ(artifactPayload(artifacts[0]).find("truncated"),
            std::string::npos);
}

TEST(ServiceServer, VersionLineNamesToolAndBuild) {
  const std::string line = support::versionLine("cssamed");
  EXPECT_EQ(line.find("cssamed "), 0u);
  EXPECT_NE(line.find(support::versionString()), std::string::npos);
  EXPECT_NE(line.find(support::buildFingerprint()), std::string::npos);
}

// ---------------------------------------------------------------------------
// Transport: the Unix-socket accept loop

TEST(ServiceSocket, ServesConcurrentClientsAndShutdownMethod) {
  ScratchDir dir("sock");
  const std::string sock = (dir.path / "d.sock").string();
  service::Server server({});
  std::thread daemon([&] { EXPECT_TRUE(server.serveUnix(sock).ok()); });
  while (!fs::exists(sock)) std::this_thread::yield();

  // Two clients with interleaved lifetimes, multiple requests each.
  Expected<support::FdStream> c1 = support::connectUnix(sock);
  Expected<support::FdStream> c2 = support::connectUnix(sock);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  service::Json r1 = roundTrip(*c1, makeRequest("analyze", kSource));
  service::Json r2 = roundTrip(*c2, makeRequest("analyze", kSource));
  EXPECT_TRUE(r1.getBool("ok", false));
  EXPECT_TRUE(r2.getBool("ok", false));
  EXPECT_EQ(r1.get("result").write(), r2.get("result").write());

  service::Json bye =
      roundTrip(*c1, R"({"id":99,"method":"shutdown"})");
  EXPECT_TRUE(bye.getBool("ok", false));
  daemon.join();
  EXPECT_TRUE(server.shutdownRequested());
  EXPECT_GE(server.cache().counters().responseHits.value(), 1u);
}

TEST(ServiceSocket, FramingViolationGetsFinalErrorThenDisconnect) {
  ScratchDir dir("sock_bad");
  const std::string sock = (dir.path / "d.sock").string();
  service::Server server({});
  std::thread daemon([&] { EXPECT_TRUE(server.serveUnix(sock).ok()); });
  while (!fs::exists(sock)) std::this_thread::yield();

  {
    Expected<support::FdStream> conn = support::connectUnix(sock);
    ASSERT_TRUE(conn.ok());
    const char junk[8] = {'X', 'X', 'X', 'X', 4, 0, 0, 0};
    ASSERT_TRUE(conn->writeAll(junk, sizeof junk).ok());
    std::string response;
    ASSERT_EQ(
        service::readFrame(*conn, response, service::kDefaultMaxPayload),
        service::FrameStatus::Ok);
    service::Json resp = parseOk(response);
    EXPECT_FALSE(resp.getBool("ok", true));
    EXPECT_EQ(resp.get("error").getString("kind", ""), "bad-frame");
    // The server hangs up after the final error.
    std::string more;
    EXPECT_EQ(
        service::readFrame(*conn, more, service::kDefaultMaxPayload),
        service::FrameStatus::Eof);
  }

  // The daemon survived and serves fresh connections.
  Expected<support::FdStream> conn2 = support::connectUnix(sock);
  ASSERT_TRUE(conn2.ok());
  service::Json ok = roundTrip(*conn2, makeRequest("analyze", kSource));
  EXPECT_TRUE(ok.getBool("ok", false));
  EXPECT_EQ(server.counters().badFrames.value(), 1u);

  server.requestShutdown();
  daemon.join();
}

TEST(ServiceSocket, OversizedPayloadIsRefusedStructurally) {
  ScratchDir dir("sock_big");
  const std::string sock = (dir.path / "d.sock").string();
  service::ServerOptions opts;
  opts.maxPayload = 1024;
  service::Server server(opts);
  std::thread daemon([&] { EXPECT_TRUE(server.serveUnix(sock).ok()); });
  while (!fs::exists(sock)) std::this_thread::yield();

  Expected<support::FdStream> conn = support::connectUnix(sock);
  ASSERT_TRUE(conn.ok());
  // Header promising 1 MiB against a 1 KiB cap.
  const unsigned char header[8] = {'c', 's', 'a', 'J', 0, 0, 0x10, 0};
  ASSERT_TRUE(conn->writeAll(header, sizeof header).ok());
  std::string response;
  ASSERT_EQ(service::readFrame(*conn, response, service::kDefaultMaxPayload),
            service::FrameStatus::Ok);
  service::Json resp = parseOk(response);
  EXPECT_FALSE(resp.getBool("ok", true));
  EXPECT_NE(resp.get("error").getString("message", "").find("too-large"),
            std::string::npos);

  server.requestShutdown();
  daemon.join();
}

// ---------------------------------------------------------------------------
// Fault injection: SIGKILL the daemon, restart from its disk cache

TEST(ServiceFaultInject, KilledDaemonRestartsCleanlyFromDiskCache) {
  ScratchDir dir("kill");
  const fs::path cacheDir = dir.path / "cache";
  const std::string sock = (dir.path / "d.sock").string();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Daemon process. SIGKILLed below; _exit so no gtest teardown runs.
    service::ServerOptions opts;
    opts.cacheDir = cacheDir.string();
    service::Server server(opts);
    (void)server.serveUnix(sock);
    ::_exit(0);
  }

  while (!fs::exists(sock)) std::this_thread::yield();
  Expected<support::FdStream> conn = support::connectUnix(sock);
  ASSERT_TRUE(conn.ok());

  // One completed request — its response is on disk once answered.
  service::Json first = roundTrip(*conn, makeRequest("analyze", kSource));
  ASSERT_TRUE(first.getBool("ok", false));

  // Fire a second request and kill the daemon without waiting: the kill
  // lands mid-request. Whatever half-written state it leaves must not
  // poison the cache directory.
  ASSERT_TRUE(service::writeFrame(*conn, makeRequest("csan", kRacySource),
                                  service::kDefaultMaxPayload)
                  .ok());
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Simulate the worst case the tmp+rename protocol allows: a partial
  // tmp file from a write that the kill interrupted — named by the dead
  // daemon's own (now reaped) pid, exactly as its insert would have.
  fs::create_directories(cacheDir);
  const fs::path torn =
      cacheDir / ("feed.art.tmp." + std::to_string(child) + ".0");
  std::ofstream(torn) << "torn write";

  // Restart on the same directory: the completed request is served from
  // disk byte-identically, the torn tmp file is swept, and the
  // interrupted request computes fresh.
  service::ServerOptions opts;
  opts.cacheDir = cacheDir.string();
  service::Server restarted(opts);
  EXPECT_FALSE(fs::exists(torn));
  service::Json warm =
      parseOk(restarted.handlePayload(makeRequest("analyze", kSource)));
  EXPECT_EQ(warm.getString("cached", "?"), "disk");
  EXPECT_EQ(warm.get("result").write(), first.get("result").write());
  service::Json fresh =
      parseOk(restarted.handlePayload(makeRequest("csan", kRacySource)));
  EXPECT_TRUE(fresh.getBool("ok", false));
}

}  // namespace
}  // namespace cssame
