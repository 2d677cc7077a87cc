#include "core/sharded_delivery.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "codec/decoder.hpp"
#include "core/session_plan.hpp"

namespace icd::core {

ShardedDelivery::ShardedDelivery(std::vector<std::uint8_t> content,
                                 DeliveryOptions options,
                                 ShardOptions shard_options)
    : content_(std::move(content)), options_(options),
      shards_(std::max<std::size_t>(1, shard_options.shards)),
      faults_(options.faults) {
  origins_.push_back(std::make_unique<OriginServer>(
      content_, options_.block_size,
      delivery_distribution(content_.size(), options_.block_size),
      options_.session_seed, /*stream_index=*/0));
  for (Shard& shard : shards_) {
    shard.pool = std::make_shared<wire::BufferPool>(kShardPoolBuffers);
  }
  if (shards_.size() > 1) pool_.emplace(shards_.size());
}

void ShardedDelivery::add_mirror() {
  origins_.push_back(std::make_unique<OriginServer>(
      content_, options_.block_size,
      delivery_distribution(content_.size(), options_.block_size),
      options_.session_seed, /*stream_index=*/origins_.size()));
}

std::size_t ShardedDelivery::add_peer(const std::string& name,
                                      bool subscribe_origin) {
  PeerEntry entry;
  entry.peer = std::make_unique<Peer>(
      name, origins_.front()->parameters(),
      delivery_distribution(content_.size(), options_.block_size));
  entry.origin_fed = subscribe_origin;
  entry.origin_index = peers_.size() % origins_.size();
  peers_.push_back(std::move(entry));
  const std::size_t id = peers_.size() - 1;
  if (subscribe_origin) origin_fed_.push_back(id);
  shards_[shard_of(id)].peers.push_back(id);
  return id;
}

void ShardedDelivery::run_phase(
    const std::function<void(std::size_t)>& phase) {
  if (!pool_) {
    phase(0);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  pool_->run(phase);
  parallel_wall_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void ShardedDelivery::refresh_sessions() {
  // Give every incomplete peer up to max_peer_sessions downloads from
  // admission-ranked senders (ranking, fallback, sampling and seeds:
  // session_plan). Every shard retires its receivers' downloads first, so
  // every candidate is seen after teardown.
  run_phase([this](std::size_t shard) { phase_retire(shard); });
  // One snapshot per refresh; fault and suspect state cannot change
  // inside a refresh.
  plan_view_.resize(peers_.size());
  plan_eligible_.clear();
  for (std::size_t j = 0; j < peers_.size(); ++j) {
    const Peer& peer = *peers_[j].peer;
    plan_view_[j] = CandidateSender{j, &peer.sketch(), peer.symbol_count()};
    if (peer.symbol_count() > 0 && !faults_.down(j, tick_now_) &&
        !faults_.suspect(j, tick_now_)) {
      plan_eligible_.push_back(j);
    }
  }
  run_phase([this](std::size_t shard) { phase_build(shard); });
}

void ShardedDelivery::phase_retire(std::size_t shard) {
  for (const std::size_t id : shards_[shard].peers) retire_downloads(id);
}

void ShardedDelivery::phase_build(std::size_t shard) {
  // The planning target rounds kDecodeOverhead * blocks down, where every
  // completion rule (codec::decoding_target) rounds up: rounding it up too
  // would change the request shares.
  const std::size_t target = static_cast<std::size_t>(
      codec::kDecodeOverhead * static_cast<double>(parameters().block_count));
  Shard& own = shards_[shard];
  std::vector<CandidateSender> candidates;
  bool serving = false;
  for (const std::size_t id : own.peers) {
    PeerEntry& entry = peers_[id];
    // A down peer plans nothing this refresh — it rejoins (session
    // resumption with its surviving working set) at the first refresh
    // after its restart. The fault plan is immutable: any shard may read
    // it.
    if (!entry.peer->has_content() && !faults_.down(id, tick_now_)) {
      // A plan reads only the snapshot; a download reads its receiver's
      // Peer when it starts, and only references its sender's.
      const std::uint64_t seed =
          receiver_seed(options_.session_seed, tick_now_, id);
      sample_candidates(id, plan_view_, plan_eligible_,
                        options_.admission_sample, seed, candidates);
      for (const PlannedDownload& planned : plan_downloads(
               id, plan_view_[id], candidates, options_, target, seed)) {
        auto download = std::make_unique<DownloadLink>(
            *peers_[planned.sender_id].peer, *entry.peer, planned.session,
            planned.link, options_.block_size, own.pool);
        // The handshake itself flows over the link and completes across
        // subsequent ticks.
        download->receiver.start();
        entry.downloads.emplace_back(planned.sender_id, std::move(download));
      }
      // Receivers drain their downloads in ascending sender order.
      std::sort(
          entry.downloads.begin(), entry.downloads.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    serving = serving || !entry.downloads.empty();
  }
  // A shard left without downloads draws no frame before the next
  // refresh: its pool need not pin their buffers meanwhile.
  if (!serving) own.pool->trim();
}

void ShardedDelivery::retire_downloads(std::size_t id) {
  PeerEntry& entry = peers_[id];
  for (auto& [sender_id, download] : entry.downloads) {
    teardown_download(id, *download);
  }
  entry.downloads.clear();
  // Sessions are fully retired: a peer that finished since the last
  // refresh can safely shed its solver state (see
  // Peer::compact_on_complete for why this must not happen at the
  // completion stamp itself).
  if (entry.peer->has_content()) entry.peer->compact_on_complete();
}

void ShardedDelivery::teardown_download(std::size_t receiver,
                                        DownloadLink& download) {
  // Deliver frames still in flight, then bank the link's costs.
  download.link.flush();
  download.receiver.tick();
  accumulate_link(download, shards_[shard_of(receiver)].retired);
}

void ShardedDelivery::apply_faults(std::uint64_t now) {
  bool crashed = false;
  faults_.apply_until(
      now,
      /*on_crash=*/
      [this, &crashed](std::size_t peer) {
        if (peer >= peers_.size()) return;
        shards_[shard_of(peer)].crashed.push_back(peer);
        crashed = true;
      },
      /*on_join=*/
      [this](std::size_t count, bool origin_fed) {
        for (std::size_t n = 0; n < count; ++n) {
          add_peer("join" + std::to_string(peers_.size()), origin_fed);
        }
      });
  // Before the refresh and the send phase: a crash restarted on this same
  // tick leaves the peer up for the send phase, where other shards' sender
  // halves read it.
  if (crashed) run_phase([this](std::size_t shard) { phase_crash(shard); });
}

void ShardedDelivery::phase_crash(std::size_t shard) {
  Shard& own = shards_[shard];
  for (const std::size_t id : own.crashed) retire_downloads(id);
  own.crashed.clear();
}

void ShardedDelivery::retire_failed_downloads(
    std::size_t id, std::uint64_t now,
    std::vector<std::pair<std::size_t, std::uint64_t>>& suspects) {
  PeerEntry& entry = peers_[id];
  for (auto it = entry.downloads.begin(); it != entry.downloads.end();) {
    const ReceiverEndpoint& receiver = it->second->receiver;
    if (!receiver.failed() && !receiver.sender_suspect()) {
      ++it;
      continue;
    }
    const auto reason = receiver.failed()
                            ? FailedPeer::Reason::kHandshakeExhausted
                            : FailedPeer::Reason::kLivenessTimeout;
    teardown_download(id, *it->second);
    entry.failed_peers.push_back(FailedPeer{it->first, now, reason});
    suspects.emplace_back(it->first, now + suspect_ttl());
    it = entry.downloads.erase(it);
  }
}

void ShardedDelivery::phase_send(std::size_t shard) {
  // Read-only over swarm state: sender halves draw from working sets that
  // nothing mutates until the barrier (origin applies and receives both
  // live in phase_receive). Every scratch buffer a sender writes is its
  // endpoint's own, so the sender halves of one Peer may run on several
  // shards at once, and neither iteration order nor placement can leak
  // into results. A peer's completion changes only in its own receive
  // turn, so the send phase reads the value the tick started with.
  const bool blackouts = faults_.any_blackouts();
  for (const std::size_t id : shards_[shard].peers) {
    PeerEntry& entry = peers_[id];
    if (entry.peer->has_content() || faults_.down(id, tick_now_)) continue;
    for (auto& [sender_id, download] : entry.downloads) {
      if (blackouts) {
        download->link.set_blackout(faults_.blackout(sender_id, id, tick_now_));
      }
      download->send_phase(tick_now_, faults_.down(sender_id, tick_now_));
    }
  }
}

void ShardedDelivery::phase_receive(std::size_t shard) {
  // All working-set mutations happen here, and each touches only the
  // iterated peer's own state: the origin apply the coordinator reserved
  // the id for (stream order is fixed at reservation, so where the
  // XOR-heavy encode runs is immaterial), then the receiver halves in
  // ascending sender order, then the teardowns of its failed downloads.
  Shard& own = shards_[shard];
  const std::uint64_t next = tick_now_ + 1;
  std::optional<std::uint64_t> earliest;
  std::size_t planned = 0;
  std::size_t complete = 0;
  for (const std::size_t id : own.peers) {
    PeerEntry& entry = peers_[id];
    if (!entry.peer->has_content() && !faults_.down(id, tick_now_)) {
      if (entry.pending_origin_id) {
        entry.peer->receive_encoded(
            origins_[entry.origin_index]->encode(*entry.pending_origin_id));
        entry.pending_origin_id.reset();
      }
      for (auto& [sender_id, download] : entry.downloads) {
        if (entry.peer->has_content()) break;
        download->receive_phase(tick_now_);
      }
    }
    // Sessions whose receiver flagged a dead sender retire at the tick
    // they failed; the teardown drain may complete the receiver.
    if (failure_detection_enabled()) {
      retire_failed_downloads(id, next, own.suspects);
    }
    // Stamp and plan every peer, serviced or not, where its state now
    // sits. Nothing touches a plan's inputs before run_until folds the
    // shards' minima; later faults and refreshes fall on ticks the fold
    // stops at, which plan again.
    if (entry.peer->has_content()) {
      ++complete;
      if (entry.completed_tick == 0) entry.completed_tick = next;
    }
    if (const auto due = plan_peer(id, next)) {
      ++planned;
      if (!earliest || *due < *earliest) earliest = due;
    }
  }
  own.earliest_due = earliest;
  own.planned = planned;
  own.complete = complete;
}

void ShardedDelivery::tick() {
  // Virtual time of this tick (= its index): a refresh due now seeds its
  // plans with it, and every timed link advances to it.
  tick_now_ = ticks_;
  // Fault application precedes the refresh so crashed peers are excluded
  // from (and flash-crowd joiners included in) a refresh due this tick.
  if (faults_.active()) apply_faults(ticks_);
  if (ticks_ % std::max<std::size_t>(1, options_.refresh_interval) == 0) {
    refresh_sessions();
  }
  ++ticks_;

  // Origin draws in peer order, skipping complete and down peers: the
  // symbol-to-peer assignment is fixed here whatever the shard count.
  for (const std::size_t id : origin_fed_) {
    PeerEntry& entry = peers_[id];
    if (entry.peer->has_content() || faults_.down(id, tick_now_)) continue;
    // Reserve the id only; the owning shard encodes it when it applies
    // it. next() ≡ encode(take_next_id()), so the symbol each peer sees is
    // exactly what the serial draw produced.
    entry.pending_origin_id = origins_[entry.origin_index]->take_next_id();
  }

  // Every sender half, barrier, every receiver half: one schedule at every
  // shard count, so shards = 1 simply runs both phases on this thread.
  run_phase([this](std::size_t shard) { phase_send(shard); });
  run_phase([this](std::size_t shard) { phase_receive(shard); });

  // Suspicions only feed a later refresh, and mark_suspect keeps the
  // latest expiry, so their order is immaterial.
  for (Shard& shard : shards_) {
    planner_stats_.pushes += shard.planned;
    for (const auto& [sender, until] : shard.suspects) {
      faults_.mark_suspect(sender, until);
    }
    shard.suspects.clear();
  }
}

std::optional<std::uint64_t> ShardedDelivery::plan_peer(
    std::size_t i, std::uint64_t now) const {
  const PeerEntry& entry = peers_[i];
  if (entry.peer->has_content()) return std::nullopt;
  // A down peer is frozen until a fault boundary wakes it; the fold stops
  // at every boundary, never at a per-link time.
  if (faults_.down(i, now)) return std::nullopt;
  // The origin fountain streams one symbol per tick to an incomplete
  // subscriber: every tick is an event while one exists.
  if (entry.origin_fed) return now;
  std::optional<std::uint64_t> due;
  for (const auto& [sender_id, download] : entry.downloads) {
    const auto at = download->due_at(now, faults_.down(sender_id, now));
    if (!at) continue;
    if (*at == now) return now;  // nothing can be earlier
    if (!due || *at < *due) due = at;
  }
  return due;
}

std::uint64_t ShardedDelivery::next_event_time() const {
  const std::uint64_t now = ticks_;
  const std::size_t interval =
      std::max<std::size_t>(1, options_.refresh_interval);
  std::uint64_t at = ((now + interval - 1) / interval) * interval;
  for (const Shard& shard : shards_) {
    if (shard.earliest_due) at = std::min(at, *shard.earliest_due);
  }
  // Fault boundaries at or after `now` are planning barriers: the jump
  // never crosses a crash/restart/join tick or a stall/blackout window
  // edge, so jumped and lockstep runs apply those faults at identical
  // ticks.
  if (const auto boundary = faults_.next_boundary_from(now)) {
    at = std::min(at, *boundary);
  }
  return std::max(at, now);
}

bool ShardedDelivery::run(std::size_t max_ticks) {
  return run_until(ticks_ + max_ticks);
}

bool ShardedDelivery::run_until(std::uint64_t deadline) {
  while (ticks_ < deadline) {
    tick();
    if (all_finished()) return true;
    if (!options_.jump_empty_ticks) continue;
    // Jump straight to the next tick at which anything can happen —
    // sharded ticks barrier only at event times; the span in between
    // would have been all-shard no-ops.
    const std::uint64_t target =
        std::min<std::uint64_t>(next_event_time(), deadline);
    ticks_skipped_ += target - ticks_;
    ticks_ = target;
  }
  return all_finished();
}

bool ShardedDelivery::all_finished() const {
  // "All done" is only final once no flash crowd is still scheduled to
  // arrive — a pending join re-opens the swarm. The last receive phase
  // counted every peer holding the content, and nothing completes a peer
  // between ticks.
  if (faults_.pending_joins()) return false;
  std::size_t complete = 0;
  for (const Shard& shard : shards_) complete += shard.complete;
  return complete == peers_.size();
}

std::vector<std::uint8_t> ShardedDelivery::peer_content(
    std::size_t id) const {
  return peers_.at(id).peer->content(content_.size());
}

void ShardedDelivery::accumulate_link(const DownloadLink& download,
                                      LinkTotals& totals) {
  totals.add(download.sender.transport().stats())
      .add(download.receiver.transport().stats());
}

ShardedDelivery::LinkTotals ShardedDelivery::active_link_totals() const {
  LinkTotals totals;
  for (const PeerEntry& entry : peers_) {
    for (const auto& [sender_id, download] : entry.downloads) {
      accumulate_link(*download, totals);
    }
  }
  return totals;
}

ShardedDelivery::LinkTotals ShardedDelivery::link_totals() const {
  LinkTotals totals = active_link_totals();
  for (const Shard& shard : shards_) totals += shard.retired;
  return totals;
}

std::vector<std::uint64_t> ShardedDelivery::shard_busy_ns() const {
  if (!pool_) return {};
  return pool_->busy_ns();
}

MemoryAudit ShardedDelivery::memory_audit() const {
  MemoryAudit audit;
  audit.peers = peers_.size();
  for (const PeerEntry& entry : peers_) {
    audit.decoder_bytes += entry.peer->memory_bytes();
    for (const auto& [sender_id, download] : entry.downloads) {
      audit.endpoint_bytes += download->sender.memory_bytes() +
                              download->receiver.memory_bytes();
      // Engine links exclude the shard pool they share (see
      // ChannelLink::memory_bytes).
      audit.link_bytes += download->link.memory_bytes();
    }
  }
  // Each shard's pool, shared by all its links, counts exactly once.
  for (const Shard& shard : shards_) {
    audit.link_bytes += shard.pool->memory_bytes();
  }
  return audit;
}

}  // namespace icd::core
