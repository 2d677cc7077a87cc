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
      shard_peers_(shards_), retired_link_totals_(shards_),
      faults_(options.faults),
      send_fn_([this](std::size_t shard) { phase_send(shard); }),
      receive_fn_([this](std::size_t shard) { phase_receive(shard); }),
      retire_fn_([this](std::size_t shard) { phase_retire(shard); }),
      build_fn_([this](std::size_t shard) { phase_build(shard); }) {
  origins_.push_back(std::make_unique<OriginServer>(
      content_, options_.block_size,
      delivery_distribution(content_.size(), options_.block_size),
      options_.session_seed, /*stream_index=*/0));
  shard_pools_.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    shard_pools_.push_back(
        std::make_shared<wire::BufferPool>(kShardPoolBuffers));
  }
  if (shards_ > 1) pool_.emplace(shards_);
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
  shard_peers_[shard_of(id)].push_back(id);
  return id;
}

void ShardedDelivery::release_pool_owners() {
  // The coordinator is about to stand in for the shard threads (a crash
  // or failure-sweep teardown) or has just done so: unbind every shard's
  // pool so the next user — worker or coordinator — rebinds. Workers are
  // parked at a barrier, which orders the handoff.
  for (const auto& pool : shard_pools_) pool->debug_release_owner();
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
  run_phase(retire_fn_);
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
  run_phase(build_fn_);
}

void ShardedDelivery::phase_retire(std::size_t shard) {
  for (const std::size_t id : shard_peers_[shard]) retire_downloads(id);
}

void ShardedDelivery::phase_build(std::size_t shard) {
  // The planning target rounds kDecodeOverhead * blocks down, where every
  // completion rule (codec::decoding_target) rounds up: rounding it up too
  // would change the request shares.
  const std::size_t target = static_cast<std::size_t>(
      codec::kDecodeOverhead * static_cast<double>(parameters().block_count));
  std::vector<CandidateSender> candidates;
  bool serving = false;
  for (const std::size_t id : shard_peers_[shard]) {
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
            planned.link, options_.block_size, shard_pools_[shard]);
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
  if (!serving) shard_pools_[shard]->trim();
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
  accumulate_link(download, retired_link_totals_[shard_of(receiver)]);
}

void ShardedDelivery::apply_faults(std::uint64_t now) {
  faults_.apply_until(
      now,
      /*on_crash=*/
      [this](std::size_t peer) {
        if (peer >= peers_.size()) return;
        // Coordinator stands in for the shard threads during the
        // teardown ticks; the workers are parked between pool runs.
        release_pool_owners();
        retire_downloads(peer);
        release_pool_owners();
      },
      /*on_join=*/
      [this](std::size_t count, bool origin_fed) {
        for (std::size_t n = 0; n < count; ++n) {
          add_peer("join" + std::to_string(peers_.size()), origin_fed);
        }
      });
}

void ShardedDelivery::sweep_failed_downloads(std::uint64_t now) {
  bool any_erased = false;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    PeerEntry& entry = peers_[i];
    bool erased_here = false;
    for (auto it = entry.downloads.begin(); it != entry.downloads.end();) {
      const ReceiverEndpoint& receiver = it->second->receiver;
      if (!receiver.failed() && !receiver.sender_suspect()) {
        ++it;
        continue;
      }
      if (!any_erased) release_pool_owners();
      any_erased = true;
      erased_here = true;
      const auto reason = receiver.failed()
                              ? FailedPeer::Reason::kHandshakeExhausted
                              : FailedPeer::Reason::kLivenessTimeout;
      teardown_download(i, *it->second);
      entry.failed_peers.push_back(FailedPeer{it->first, now, reason});
      faults_.mark_suspect(it->first, now + suspect_ttl());
      it = entry.downloads.erase(it);
    }
    // The teardown drain may have completed the receiver, and its plan
    // must no longer count the erased downloads.
    if (erased_here) entry.next_due = plan_peer(i, now);
  }
  if (any_erased) release_pool_owners();
}

void ShardedDelivery::phase_send(std::size_t shard) {
  // Read-only over swarm state: sender halves draw from working sets that
  // nothing mutates until the barrier (origin applies and receives both
  // live in phase_receive). Every scratch buffer a sender writes is its
  // endpoint's own, so the sender halves of one Peer may run on several
  // shards at once, and neither iteration order nor placement can leak
  // into results.
  for (const std::size_t id : shard_peers_[shard]) {
    PeerEntry& entry = peers_[id];
    if (entry.complete_at_tick_start || entry.faulted_at_tick_start) continue;
    for (auto& [sender_id, download] : entry.downloads) {
      download->send_phase(tick_now_, peers_[sender_id].faulted_at_tick_start);
    }
  }
}

void ShardedDelivery::phase_receive(std::size_t shard) {
  // All working-set mutations happen here, and each touches only the
  // iterated peer's own state: the origin apply the coordinator reserved
  // the id for (stream order is fixed at reservation, so where the
  // XOR-heavy encode runs is immaterial), then the receiver halves in
  // ascending sender order.
  for (const std::size_t id : shard_peers_[shard]) {
    PeerEntry& entry = peers_[id];
    if (!entry.complete_at_tick_start && !entry.faulted_at_tick_start) {
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
    // Plan every peer, serviced or not, where its state now sits. Before
    // run_until folds the plans only the failure sweep touches a plan's
    // inputs, and it re-plans; later faults and refreshes fall on ticks
    // the fold stops at, which plan again.
    entry.next_due = plan_peer(id, tick_now_ + 1);
  }
}

std::size_t ShardedDelivery::tick() {
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

  // Coordinator prologue: completion and fault snapshots (the phases read
  // these instead of cross-shard peer state) and origin draws in peer
  // order, skipping complete and down peers — the symbol-to-peer
  // assignment is fixed here whatever the shard count.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    PeerEntry& entry = peers_[i];
    entry.complete_at_tick_start = entry.peer->has_content();
    entry.faulted_at_tick_start =
        faults_.active() && faults_.down(i, tick_now_);
    if (entry.complete_at_tick_start || entry.faulted_at_tick_start) {
      continue;
    }
    if (entry.origin_fed) {
      // Reserve the id only; the owning shard encodes it when it applies
      // it. next() ≡ encode(take_next_id()), so the symbol each peer
      // sees is exactly what the serial draw produced.
      entry.pending_origin_id =
          origins_[entry.origin_index]->take_next_id();
    }
    if (faults_.any_blackouts()) {
      for (auto& [sender_id, download] : entry.downloads) {
        download->link.set_blackout(faults_.blackout(sender_id, i, tick_now_));
      }
    }
  }

  // Every sender half, barrier, every receiver half: one schedule at every
  // shard count, so shards = 1 simply runs both phases on this thread.
  run_phase(send_fn_);
  run_phase(receive_fn_);

  // Failure sweep before the completion stamps, so sessions whose
  // receivers flagged a dead sender are retired at the tick they failed;
  // the workers are parked again, so the coordinator owns all state.
  if (failure_detection_enabled()) sweep_failed_downloads(ticks_);

  std::size_t completed_now = 0;
  earliest_due_.reset();
  for (PeerEntry& entry : peers_) {
    if (!entry.complete_at_tick_start && entry.peer->has_content()) {
      ++completed_now;
    }
    if (entry.completed_tick == 0 && entry.peer->has_content()) {
      entry.completed_tick = ticks_;
    }
    if (entry.next_due) {
      ++planner_stats_.pushes;
      if (!earliest_due_ || *entry.next_due < *earliest_due_) {
        earliest_due_ = entry.next_due;
      }
    }
  }
  return completed_now;
}

std::optional<std::uint64_t> ShardedDelivery::plan_peer(
    std::size_t i, std::uint64_t now) const {
  const PeerEntry& entry = peers_[i];
  if (entry.peer->has_content()) return std::nullopt;
  // A down peer is frozen until a fault boundary wakes it; the fold stops
  // at every boundary, never at a per-link time.
  if (faults_.active() && faults_.down(i, now)) return std::nullopt;
  // The origin fountain streams one symbol per tick to an incomplete
  // subscriber: every tick is an event while one exists.
  if (entry.origin_fed) return now;
  std::optional<std::uint64_t> due;
  for (const auto& [sender_id, download] : entry.downloads) {
    const auto at = download->due_at(
        now, faults_.active() && faults_.down(sender_id, now));
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
  if (earliest_due_) at = std::min(at, *earliest_due_);
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
  // arrive — a pending join re-opens the swarm.
  return !faults_.pending_joins() &&
         std::all_of(peers_.begin(), peers_.end(), [](const PeerEntry& e) {
           return e.peer->has_content();
         });
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
  for (const LinkTotals& retired : retired_link_totals_) totals += retired;
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
  for (const auto& pool : shard_pools_) {
    audit.link_bytes += pool->memory_bytes();
  }
  return audit;
}

}  // namespace icd::core
