#include "core/endpoint.hpp"

#include <algorithm>
#include <stdexcept>

#include "filter/bloom.hpp"

namespace icd::core {

namespace {

codec::DegreeDistribution make_recode_distribution(std::size_t domain_size) {
  return codec::DegreeDistribution::robust_soliton(
             std::max<std::size_t>(domain_size, 2))
      .truncated(codec::kDefaultRecodeDegreeLimit);
}

}  // namespace

// --- ReceiverEndpoint ------------------------------------------------------

ReceiverEndpoint::ReceiverEndpoint(Peer& peer, SessionOptions options,
                                   wire::Transport& transport)
    : peer_(peer), options_(options), transport_(transport) {}

void ReceiverEndpoint::start() {
  started_ = true;
  send_bundle();
}

namespace {

/// (Re)fills a cached SketchMessage with the peer's current sketch —
/// copy-assignment into the cached minima vector reuses its capacity, so
/// only the very first bundle of a session allocates for the sketch.
const wire::Message& refresh_sketch_scratch(
    std::optional<wire::Message>& scratch, const Peer& peer) {
  if (!scratch) {
    scratch.emplace(wire::SketchMessage{peer.sketch()});
  } else {
    std::get<wire::SketchMessage>(*scratch).sketch = peer.sketch();
  }
  return *scratch;
}

}  // namespace

void ReceiverEndpoint::send_bundle() {
  const auto& params = peer_.parameters();
  transport_.send(wire::Hello{params.block_count, params.session_seed,
                              peer_.symbol_count()});
  transport_.send(refresh_sketch_scratch(sketch_scratch_, peer_));
  if (strategy_uses_bloom(options_.strategy)) {
    if (!summary_cache_) {
      if (options_.summary == SummaryKind::kBloomFilter) {
        summary_cache_ = wire::BloomSummaryMessage{peer_.bloom_summary()};
      } else {
        summary_cache_ = wire::ArtSummaryMessage{peer_.art_summary()};
      }
    }
    transport_.send(*summary_cache_);
  }
  // The Request closes the bundle: the sender replies only once it has
  // everything, so a re-sent Request re-triggers the reply.
  transport_.send(wire::Request{options_.requested_symbols});
}

std::size_t ReceiverEndpoint::tick() {
  if (!started_) {
    throw std::logic_error("ReceiverEndpoint::tick before start");
  }
  // Elapsed quiet credit for this service: one call on the call-counting
  // clock, the virtual span since the last service once advance_to() has
  // armed the virtual clock — identical under a lockstep driver, credited
  // in one step by a jumping driver whose skipped ticks were provably
  // quiet. Computed up front so both the handshake retry clock and the
  // transfer liveness clock share one definition of "elapsed".
  std::size_t elapsed = 1;
  if (clock_) {
    if (serviced_at_ && *clock_ > *serviced_at_) {
      elapsed = static_cast<std::size_t>(*clock_ - *serviced_at_);
    }
    serviced_at_ = *clock_;
  }
  std::size_t gained = 0;
  std::size_t frames_seen = 0;
  // Zero-copy drain: symbol frames, reassembled ones included, arrive as
  // views into the transport's receive buffer and are copied exactly once,
  // into the peer's decoder; only control frames are owning Messages.
  while (auto frame = transport_.receive_frame()) {
    ++frames_seen;
    if (auto* message = std::get_if<wire::Message>(&*frame)) {
      if (auto* hello = std::get_if<wire::Hello>(message)) {
        if (hello->block_count != peer_.parameters().block_count ||
            hello->session_seed != peer_.parameters().session_seed) {
          throw std::invalid_argument(
              "ReceiverEndpoint: sender uses a different code");
        }
        sender_hello_ = *hello;
      } else if (auto* sketch = std::get_if<wire::SketchMessage>(message)) {
        // Buffered: a reordered link can deliver the sketch before the
        // Hello that carries the working-set size the estimate needs.
        sender_sketch_ = std::move(sketch->sketch);
      }
      // Anything else (stray Request/summary echoes) is ignored.
      continue;
    }
    const auto* encoded = std::get_if<codec::EncodedSymbolView>(&*frame);
    const std::size_t got =
        encoded ? peer_.receive_encoded(*encoded)
                : peer_.receive_recoded(
                      std::get<codec::RecodedSymbolView>(*frame));
    ++symbols_received_;
    if (got > 0) ++symbols_useful_;
    new_encoded_symbols_ += got;
    gained += got;
  }

  if (sender_hello_ && sender_sketch_) {
    if (!containment_estimated_) {
      const double resemblance = sketch::MinwiseSketch::resemblance(
          peer_.sketch(), *sender_sketch_);
      estimated_containment_ = sketch::containment_from_resemblance(
          resemblance, peer_.symbol_count(), sender_hello_->working_set_size);
      containment_estimated_ = true;
    }
    in_transfer_ = true;
    // Transfer reached: the buffered sender sketch and the cached
    // handshake bundle (summary + sketch scratch) are never sent or read
    // again — retries only run pre-transfer. Freeing them here is what
    // keeps per-receiver memory flat at 10k+ peers; a duplicate sender
    // reply merely re-buffers the sketch until the next service.
    sender_sketch_.reset();
    summary_cache_.reset();
    sketch_scratch_.reset();
  }

  // Request/retry path: until the sender's reply lands, re-send the whole
  // bundle periodically — any piece of it may have been lost. The clock
  // deliberately ignores arriving traffic: symbols can already be
  // streaming while the (lost) reply is what keeps us out of transfer.
  // A service with a stale clock (teardown ticks) counts as one quiet
  // tick, as it always has. Each retry stretches the cadence by the
  // backoff factor (capped); an exhausted retry budget fails the session
  // instead of retrying forever against a permanently dead sender.
  if (!in_transfer_ && !failed_) {
    quiet_ticks_ += elapsed;
    if (quiet_ticks_ >= retry_interval()) {
      if (options_.max_handshake_retries > 0 &&
          handshake_retries_ >= options_.max_handshake_retries) {
        failed_ = true;
      } else {
        quiet_ticks_ = 0;
        ++handshake_retries_;
        send_bundle();
      }
    }
  }
  // Sender-liveness: in transfer, silence past the timeout flags the
  // sender suspect. Any arriving frame — data or control — is evidence of
  // life; a satisfied receiver expects silence and never suspects.
  if (options_.liveness_timeout_ticks > 0 &&
      in_transfer_ && !satisfied()) {
    if (frames_seen > 0) {
      quiet_transfer_ticks_ = 0;
    } else {
      quiet_transfer_ticks_ += elapsed;
      if (quiet_transfer_ticks_ >= options_.liveness_timeout_ticks) {
        sender_suspect_ = true;
      }
    }
  }
  if (options_.flow_control && in_transfer_) {
    maybe_send_flow_update();
  }
  return gained;
}

void ReceiverEndpoint::maybe_send_flow_update() {
  // The closing update (zero remaining) stops the sender. It can be lost;
  // the retry signal is the data plane itself — while symbols keep
  // arriving the sender evidently has not heard, so the stop is re-issued
  // every kFlowUpdateSymbols further arrivals. Symbols already in flight
  // over the link's RTT cost at most a handful of redundant updates.
  if (satisfied()) {
    if (!satisfied_sent_ ||
        symbols_received_ - received_at_stop_ >= kFlowUpdateSymbols) {
      transport_.send(wire::RequestUpdate{0});
      satisfied_sent_ = true;
      received_at_stop_ = symbols_received_;
      ++flow_updates_sent_;
    }
    return;
  }
  // Decrement-count re-issues only make sense against a bounded request.
  if (options_.requested_symbols == 0) return;
  if (new_encoded_symbols_ - acked_symbols_ < kFlowUpdateSymbols) {
    return;
  }
  acked_symbols_ = new_encoded_symbols_;
  transport_.send(wire::RequestUpdate{options_.requested_symbols -
                                      new_encoded_symbols_});
  ++flow_updates_sent_;
}

// --- SenderEndpoint --------------------------------------------------------

SenderEndpoint::SenderEndpoint(const Peer& peer, SessionOptions options,
                               wire::Transport& transport)
    : peer_(peer), options_(options), transport_(transport),
      rng_(options.seed) {}

bool SenderEndpoint::bundle_complete() const {
  if (!receiver_hello_ || !receiver_sketch_ || !request_seen_) return false;
  if (strategy_uses_bloom(options_.strategy) && !receiver_bloom_ &&
      !receiver_art_) {
    return false;
  }
  return true;
}

void SenderEndpoint::tick() {
  while (auto frame = transport_.receive_frame()) {
    auto* message = std::get_if<wire::Message>(&*frame);
    if (!message) continue;  // stray symbol frames carry nothing for us
    if (auto* hello = std::get_if<wire::Hello>(&*message)) {
      if (hello->block_count != peer_.parameters().block_count ||
          hello->session_seed != peer_.parameters().session_seed) {
        throw std::invalid_argument(
            "SenderEndpoint: receiver uses a different code");
      }
      receiver_hello_ = *hello;
    } else if (auto* sketch = std::get_if<wire::SketchMessage>(&*message)) {
      // The decoded summaries are this frame's own: take them, no copy.
      receiver_sketch_ = std::move(sketch->sketch);
    } else if (auto* bloom =
                   std::get_if<wire::BloomSummaryMessage>(&*message)) {
      receiver_bloom_ = std::move(bloom->filter);
    } else if (auto* art = std::get_if<wire::ArtSummaryMessage>(&*message)) {
      receiver_art_ = std::move(art->summary);
    } else if (auto* request = std::get_if<wire::Request>(&*message)) {
      symbols_desired_ = request->symbols_desired;
      request_seen_ = true;
      reply_due_ = true;  // each (re)sent bundle earns a reply
    } else if (auto* update = std::get_if<wire::RequestUpdate>(&*message)) {
      receiver_remaining_ = update->symbols_remaining;
      if (update->symbols_remaining == 0) satisfied_ = true;
    }
  }

  // Transfer first: once the handshake is digested the buffered summaries
  // are released (finish_handshake), so bundle_complete() no longer holds
  // — but in transfer the only work left is answering re-sent bundles.
  // Pre-release this ordering is equivalent to checking bundle_complete()
  // first, because the buffered pieces were sticky once transfer began.
  if (in_transfer_) {
    if (reply_due_) send_reply();
    reply_due_ = false;
    release_handshake_summaries();  // drop any re-buffered duplicates
    return;
  }
  if (!bundle_complete()) return;
  finish_handshake();
  reply_due_ = false;
}

void SenderEndpoint::finish_handshake() {
  using overlay::Strategy;

  // Estimate: containment of the receiver's working set in ours.
  const double resemblance = sketch::MinwiseSketch::resemblance(
      *receiver_sketch_, peer_.sketch());
  estimated_containment_ = sketch::containment_from_resemblance(
      resemblance, receiver_hello_->working_set_size, peer_.symbol_count());

  // Summarize: digest the Bloom/ART summary into the filtered domain, kept
  // as slots so every symbol of the session reads payloads by index.
  if (strategy_uses_bloom(options_.strategy)) {
    const auto& ids = peer_.symbol_ids();
    domain_slots_.clear();
    if (receiver_bloom_) {
      // The Bloom difference (reconcile::bloom_set_difference) read by
      // position: slot k holds ids[k], so no id is looked up.
      for (std::size_t k = 0; k < ids.size(); ++k) {
        if (!receiver_bloom_->contains(ids[k])) {
          domain_slots_.push_back(static_cast<std::uint32_t>(k));
        }
      }
    } else {
      // The ART difference names ids; map each to its slot once. They are
      // drawn from our own ids and working sets only grow, so symbol_slot
      // cannot miss; if it ever does, the handshake fails loudly here.
      for (const std::uint64_t id : art::find_local_differences(
               peer_.reconciliation_tree(), *receiver_art_,
               art::kSummaryCorrection)) {
        domain_slots_.push_back(peer_.symbol_slot(id));
      }
    }
    // Recode/BF: restrict the recoding domain to the receiver's request
    // ("we restrict the recoding domain to an appropriate small size"),
    // drawn uniformly and then ordered by id.
    if (options_.strategy == Strategy::kRecodeBloom && symbols_desired_ > 0 &&
        domain_slots_.size() > symbols_desired_) {
      util::shuffle(domain_slots_, rng_);
      domain_slots_.resize(symbols_desired_);
      std::sort(domain_slots_.begin(), domain_slots_.end(),
                [&ids](std::uint32_t a, std::uint32_t b) {
                  return ids[a] < ids[b];
                });
    }
    recode_distribution_ = make_recode_distribution(
        std::max<std::size_t>(domain_slots_.size(), 2));
  } else {
    recode_distribution_ = make_recode_distribution(peer_.symbol_count());
  }

  in_transfer_ = true;
  send_reply();
  // The sketch and summary are fully digested into estimated_containment_
  // and domain_slots_; free the per-session copies (the dominant
  // sender-side cost at scale). sketch_scratch_ stays — send_reply reuses
  // it for every re-sent bundle's reply.
  release_handshake_summaries();
}

void SenderEndpoint::send_reply() {
  const auto& params = peer_.parameters();
  transport_.send(wire::Hello{params.block_count, params.session_seed,
                              peer_.symbol_count()});
  transport_.send(refresh_sketch_scratch(sketch_scratch_, peer_));
}

bool SenderEndpoint::send_symbol() {
  using overlay::Strategy;
  if (!in_transfer_) return false;
  // Flow control: a satisfied receiver has said stop; serve nothing more.
  if (satisfied_) return false;
  // An empty working set has nothing to serve — every strategy below
  // would otherwise throw from sampling/recoding over zero held symbols.
  if (peer_.symbol_count() == 0) return false;

  // A false from the transport means the frame could not be put on the
  // wire at all (e.g. the MTU cannot fit even one fragment) — distinct
  // from channel loss, which the transport reports as sent.
  //
  // Every branch serializes straight from borrowed storage (the peer's
  // decoder for encoded symbols, recode_scratch_ for recoded ones) into a
  // pooled transport buffer: the steady-state send allocates nothing.
  //
  // Payloads are read by slot: a filtered domain is domain_slots_, fixed
  // at the handshake, and the whole working set's index k is slot k. An
  // empty domain (Random, Recode, or nothing filtered) means the whole
  // working set.
  bool sent = false;
  switch (options_.strategy) {
    case Strategy::kRandom:
    case Strategy::kRandomBloom: {
      const std::uint32_t slot =
          domain_slots_.empty()
              ? static_cast<std::uint32_t>(
                    rng_.next_below(peer_.symbol_count()))
              : domain_slots_[rng_.next_below(domain_slots_.size())];
      sent = transport_.send(codec::EncodedSymbolView{
          peer_.symbol_ids()[slot], peer_.slot_payload(slot)});
      break;
    }
    case Strategy::kRecode:
    case Strategy::kRecodeMinwise: {
      std::size_t degree = recode_distribution_->sample(rng_);
      if (options_.strategy == Strategy::kRecodeMinwise) {
        degree = codec::minwise_recode_degree(degree, estimated_containment_);
      }
      peer_.recode_into(recode_scratch_, degree, rng_);
      sent = transport_.send(codec::RecodedSymbolView(recode_scratch_));
      break;
    }
    case Strategy::kRecodeBloom: {
      const std::size_t degree = recode_distribution_->sample(rng_);
      if (domain_slots_.empty()) {
        peer_.recode_into(recode_scratch_, degree, rng_);
      } else {
        peer_.recode_slots_into(recode_scratch_, domain_slots_, degree, rng_);
      }
      sent = transport_.send(codec::RecodedSymbolView(recode_scratch_));
      break;
    }
  }
  if (!sent) return false;
  ++symbols_sent_;
  return true;
}

DownloadLink::DownloadLink(const Peer& sender, Peer& receiver,
                           const SessionOptions& options,
                           wire::ChannelConfig config, std::size_t block_size,
                           std::shared_ptr<wire::BufferPool> pool)
    : link(config, std::move(pool)), sender(sender, options, link.a()),
      receiver(receiver, options, link.b()), probe_bytes_(block_size + 64) {}

DownloadLink::DownloadLink(const Peer& sender, Peer& receiver,
                           const SessionOptions& options,
                           wire::ChannelConfig forward,
                           wire::ChannelConfig reverse, std::size_t block_size)
    : link(forward, reverse), sender(sender, options, link.a()),
      receiver(receiver, options, link.b()), probe_bytes_(block_size + 64) {}

void DownloadLink::send_phase(std::uint64_t now, bool sender_down) {
  link.advance_to(now);
  // A down sender goes silent: in-flight frames still arrive (the advance
  // above), but its endpoint is frozen — the receiver's liveness clock
  // does the failure detection.
  if (sender_down) return;
  sender.tick();
  if (!link.timed() ||
      (!sender.satisfied() && link.a_send_ready_at(probe_bytes_) <= now)) {
    sender.send_symbol();
  }
}

void DownloadLink::receive_phase(std::uint64_t now) {
  receiver.advance_to(now);
  receiver.tick();
}

std::optional<std::uint64_t> DownloadLink::due_at(std::uint64_t now,
                                                  bool sender_down) const {
  // Event-clock link: one hop of residency advances with every tick, so
  // the download is genuinely due each tick — nothing to skip.
  if (!link.timed()) return now;
  std::optional<std::uint64_t> due = link.next_event_time();
  const auto consider = [&due](std::optional<std::uint64_t> at) {
    if (at && (!due || *at < *due)) due = at;
  };
  // A sender in transfer streams on every credit tick, including while its
  // reply still crosses toward the receiver, exactly as the lockstep loop
  // drives it.
  if (!sender_down && sender.transfer_active() && !sender.satisfied()) {
    consider(link.a_send_ready_at(probe_bytes_));
  }
  if (!receiver.transfer_started() || !sender.transfer_active()) {
    // Handshaking: between arrivals the observable work is the receiver's
    // retry clock, which fires at a known virtual tick. A receiver that
    // exhausted its retry budget (failed()) has no future retry — the
    // engine tears the session down; planning nothing lets the span close.
    if (!receiver.failed()) consider(receiver.retry_due_at().value_or(now));
  } else {
    // Sender-liveness expiry is a real event: the service at that tick is
    // what declares the silent sender suspect, so a jump must not skip it.
    consider(receiver.liveness_due_at());
  }
  // A drained link whose sender is satisfied plans nothing: the receiver's
  // flow-control re-issues ride arrival services, so with no arrivals
  // pending there is provably nothing left to do.
  if (!due) return std::nullopt;
  return std::max(*due, now);
}

}  // namespace icd::core
