// 6top protocol (6P, RFC 8480) transaction engine.
//
// Two-step request/response transactions between one-hop neighbors, with
// per-peer sequence numbers, a single outstanding transaction per peer and
// timeouts. Carries ADD / DELETE / CLEAR plus the paper's ASK-CHANNEL
// command (0x0A) used by GT-TSCH's channel-allocation process.
#pragma once

#include <functional>
#include <map>

#include "mac/tsch_mac.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace gttsch {

/// The scheduling function plugs in here (RFC 8480's "SF" role).
class SixpSfCallbacks {
 public:
  virtual ~SixpSfCallbacks() = default;

  /// A peer sent us a request. Build and return the response payload
  /// (type/seqnum are filled in by the agent).
  virtual SixpPayload sixp_handle_request(NodeId peer, const SixpPayload& request) = 0;

  /// A transaction we initiated concluded. `timed_out` true means no
  /// response arrived within the timeout (response is then empty).
  virtual void sixp_transaction_done(NodeId peer, SixpCommand command, bool timed_out,
                                     const SixpPayload& response) = 0;
};

struct SixpCounters {
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t stale_responses = 0;
  std::uint64_t busy_rejections = 0;
};

class SixpAgent {
 public:
  SixpAgent(Simulator& sim, TschMac& mac, TimeUs response_timeout = 8000000);

  void set_callbacks(SixpSfCallbacks* cb) { callbacks_ = cb; }

  /// Read-only telemetry tap, invoked (before the SF callback) whenever a
  /// transaction this agent initiated concludes. `ok` means a response
  /// arrived with return code SUCCESS.
  using TransactionObserver =
      std::function<void(NodeId peer, SixpCommand command, bool timed_out, bool ok)>;
  void set_transaction_observer(TransactionObserver observer) {
    observer_ = std::move(observer);
  }

  /// Initiate a transaction toward `peer`. Returns false when one is
  /// already outstanding toward that peer (RFC 8480 rule) or the request
  /// could not be queued.
  bool request(NodeId peer, SixpPayload payload);

  /// Dispatch an incoming 6P frame (from the Node layer).
  void on_frame(const Frame& frame);

  /// Abort any outstanding transaction toward `peer` without a callback
  /// (used on parent switches).
  void abort_peer(NodeId peer);

  bool busy_with(NodeId peer) const { return outstanding_.count(peer) > 0; }
  const SixpCounters& counters() const { return counters_; }

 private:
  /// Held in place: std::map nodes never move, so the timer needs no
  /// indirection. on_timeout() erases the transaction, timer included,
  /// from inside the timer's own callback; the callback lives in its
  /// event record, not in the timer, so that is safe.
  struct Transaction {
    Transaction(Simulator& sim, SixpCommand c, std::uint8_t s)
        : command(c), seqnum(s), timer(sim) {}
    SixpCommand command;
    std::uint8_t seqnum;
    OneShotTimer timer;
  };

  void on_timeout(NodeId peer);

  Simulator& sim_;
  TschMac& mac_;
  TimeUs response_timeout_;
  SixpSfCallbacks* callbacks_ = nullptr;
  TransactionObserver observer_;
  std::map<NodeId, std::uint8_t> next_seqnum_;
  std::map<NodeId, Transaction> outstanding_;
  SixpCounters counters_;
};

}  // namespace gttsch
