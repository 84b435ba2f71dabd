#include "net/reliable.h"

#include <algorithm>

namespace dcy::net {

void ReliableSender::Track(uint32_t opcode, const rdma::MetaBlob& meta,
                           rdma::Buffer payload, uint64_t seq, SimTime now) {
  if (unacked_.size() >= opts_.max_unacked) {
    // Window full: the peer has not acknowledged anything for a long time.
    // Abandon and reset rather than grow without bound.
    Reset(now);
    return;
  }
  const bool was_empty = unacked_.empty();
  unacked_.push_back(Stored{opcode, meta, std::move(payload), seq, now, false});
  if (was_empty) {
    head_attempts_ = 0;
    next_retx_ = now + RetxDelay(0);
  }
}

void ReliableSender::OnAck(uint32_t epoch, uint64_t seq, SimTime now) {
  if (epoch != epoch_) return;  // stale (pre-reset) acknowledgement
  bool advanced = false;
  bool fresh = false;  // the newest retired frame was sent exactly once
  SimTime sent_at = 0;
  while (!unacked_.empty() && unacked_.front().seq <= seq) {
    fresh = !unacked_.front().retransmitted;
    sent_at = unacked_.front().sent_at;
    unacked_.pop_front();
    advanced = true;
  }
  if (fresh) SampleRtt(now - sent_at);
  if (advanced) {
    head_attempts_ = 0;
    next_retx_ = unacked_.empty() ? 0 : now + RetxDelay(0);
  }
}

void ReliableSender::OnNack(uint32_t epoch, uint64_t seq, SimTime now) {
  if (epoch != epoch_) return;
  while (!unacked_.empty() && unacked_.front().seq < seq) {
    unacked_.pop_front();  // implicitly acknowledged by the NACK point
    head_attempts_ = 0;
  }
  if (!unacked_.empty()) next_retx_ = now;  // retransmit on the next pump
}

const std::deque<ReliableSender::Stored>* ReliableSender::CollectRetransmits(
    SimTime now) {
  if (unacked_.empty() || now < next_retx_) return nullptr;
  if (head_attempts_ + 1 >= opts_.max_attempts) {
    // The head frame is not getting through; go-back-N cannot skip it
    // without leaving the receiver gapped forever, so flap the whole link.
    Reset(now);
    return nullptr;
  }
  ++head_attempts_;
  metrics_.retransmits += unacked_.size();
  for (Stored& s : unacked_) s.retransmitted = true;
  next_retx_ = now + RetxDelay(head_attempts_);
  return &unacked_;
}

void ReliableSender::Reset(SimTime now) {
  metrics_.frames_abandoned += unacked_.size();
  ++metrics_.link_resets;
  unacked_.clear();
  ++epoch_;
  next_seq_ = 0;
  head_attempts_ = 0;
  next_retx_ = now;
}

void ReliableSender::SampleRtt(SimTime rtt) {
  rtt = std::max<SimTime>(rtt, 1);
  if (srtt_ == 0) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    return;
  }
  // RFC 6298 gains: RTTVAR += (|SRTT - R| - RTTVAR) / 4, SRTT += (R - SRTT) / 8.
  const SimTime err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
  rttvar_ = (3 * rttvar_ + err) / 4;
  srtt_ = std::max<SimTime>((7 * srtt_ + rtt) / 8, 1);
}

SimTime ReliableSender::rto() const {
  if (srtt_ == 0) return opts_.initial_backoff;
  return std::clamp(srtt_ + 4 * rttvar_, opts_.initial_backoff,
                    std::max(opts_.initial_backoff, opts_.max_backoff));
}

SimTime ReliableSender::RetxDelay(uint32_t attempts) {
  SimTime base = rto();
  for (uint32_t i = 0; i < attempts && base < opts_.max_backoff; ++i) base *= 2;
  base = std::min(base, opts_.max_backoff);
  const double scale = 1.0 + opts_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  return std::max<SimTime>(1, static_cast<SimTime>(static_cast<double>(base) * scale));
}

void ReliableReceiver::NackExpected(PeerState* peer, Outcome* out) {
  if (peer->last_nacked == peer->expected) return;
  peer->last_nacked = peer->expected;
  out->send_nack = true;
  out->nack_seq = peer->expected;
  out->nack_epoch = peer->epoch;
  ++metrics_.nacks_sent;
}

std::optional<ReliableReceiver::Outcome> ReliableReceiver::Settle(
    const FrameHeader& h) {
  Outcome out;
  if (h.magic != kFrameMagic || h.sender == core::kInvalidNode) {
    ++metrics_.frames_invalid;
    out.verdict = Verdict::kInvalid;
    return out;
  }
  PeerState& peer = peers_[h.sender];
  if (h.epoch > peer.epoch) return std::nullopt;  // adopting needs a verified frame
  if (h.epoch < peer.epoch) {
    ++metrics_.frames_stale;
    out.verdict = Verdict::kStale;
    return out;
  }
  if (h.seq < peer.expected) {
    ++metrics_.frames_duplicate;
    out.verdict = Verdict::kDuplicate;
    return out;
  }
  if (h.seq > peer.expected) {
    ++metrics_.frames_gap;
    out.verdict = Verdict::kGap;
    NackExpected(&peer, &out);
    return out;
  }
  return std::nullopt;
}

ReliableReceiver::Outcome ReliableReceiver::Admit(const FrameHeader& h) {
  Outcome out;
  PeerState& peer = peers_[h.sender];
  if (h.epoch > peer.epoch) {
    // The sender reset (restart / re-splice / flap): adopt the new epoch.
    peer.epoch = h.epoch;
    peer.expected = 0;
    peer.last_nacked = UINT64_MAX;
  }
  if (h.seq > peer.expected) {  // the new epoch's first frames were lost
    ++metrics_.frames_gap;
    out.verdict = Verdict::kGap;
    NackExpected(&peer, &out);
    return out;
  }
  ++peer.expected;
  peer.last_nacked = UINT64_MAX;  // progress re-arms the NACK dedupe
  out.verdict = Verdict::kDeliver;
  return out;
}

ReliableReceiver::Outcome ReliableReceiver::Reject(const FrameHeader& h) {
  // Nothing in a corrupt frame can be trusted — its epoch/seq may be the
  // very bits that flipped. The NACK names what *we* expect in the epoch we
  // believe in; if the frame was genuinely from a newer epoch the retransmit
  // timer re-delivers it intact and the adoption happens then.
  Outcome out;
  ++metrics_.frames_corrupted;
  out.verdict = Verdict::kCorrupt;
  NackExpected(&peers_[h.sender], &out);
  return out;
}

bool ReliableReceiver::CumulativeAck(uint32_t sender, uint32_t* epoch,
                                     uint64_t* seq) const {
  auto it = peers_.find(sender);
  if (it == peers_.end() || it->second.expected == 0) return false;
  *epoch = it->second.epoch;
  *seq = it->second.expected - 1;
  return true;
}

}  // namespace dcy::net
