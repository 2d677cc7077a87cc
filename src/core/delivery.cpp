#include "core/delivery.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/session_plan.hpp"
#include "util/hash.hpp"

namespace icd::core {

ContentDeliveryService::ContentDeliveryService(
    std::vector<std::uint8_t> content, DeliveryOptions options)
    : content_(std::move(content)), options_(options),
      next_session_seed_(util::mix64(options.session_seed ^ 0x5e551075ULL)),
      faults_(options.faults) {
  origins_.push_back(std::make_unique<OriginServer>(
      content_, options_.block_size,
      delivery_distribution(content_.size(), options_.block_size),
      options_.session_seed, /*stream_index=*/0));
}

void ContentDeliveryService::add_mirror() {
  origins_.push_back(std::make_unique<OriginServer>(
      content_, options_.block_size,
      delivery_distribution(content_.size(), options_.block_size),
      options_.session_seed, /*stream_index=*/origins_.size()));
}

std::size_t ContentDeliveryService::add_peer(const std::string& name,
                                             bool subscribe_origin) {
  PeerEntry entry;
  entry.peer = std::make_unique<Peer>(
      name, origins_.front()->parameters(),
      delivery_distribution(content_.size(), options_.block_size));
  entry.origin_fed = subscribe_origin;
  entry.origin_index = peers_.size() % origins_.size();
  peers_.push_back(std::move(entry));
  planner_dirty_ = true;  // membership change: replan from scratch
  return peers_.size() - 1;
}

void ContentDeliveryService::refresh_sessions() {
  // Tear down finished/stale sessions, then give every incomplete peer up
  // to max_peer_sessions downloads from admission-ranked senders. The loop
  // shape, ranking, fallback and seed chain live in session_plan, shared
  // with ShardedDelivery so the two engines form identical sessions.
  const std::size_t target = static_cast<std::size_t>(
      1.07 * static_cast<double>(parameters().block_count));
  planner_dirty_ = true;  // every download link is about to be replaced
  run_refresh_loop(
      peers_.size(), options_, target, next_session_seed_,
      /*teardown=*/
      [this](std::size_t me) {
        // Graceful teardown (mirrors the simulator's reconfigure): flush
        // and deliver frames still in flight (nothing further will be sent
        // on the link, so the channel's one-hop clock would never release
        // them), then bank the wire costs of the links about to be retired
        // so cumulative accounting (link_totals) survives.
        for (auto& [sender_id, download] : peers_[me].downloads) {
          teardown_download(*download);
        }
        peers_[me].downloads.clear();
        // Past the last delivery this peer can ever see, a finished
        // decoder's solver state is dead weight — release it here (not at
        // the completion stamp, where in-flight symbols could still peel
        // held equations and perturb the sketch admission reads).
        if (peers_[me].peer->has_content()) {
          peers_[me].peer->compact_on_complete();
        }
      },
      /*is_complete=*/
      [this](std::size_t me) {
        // A down peer plans nothing this refresh — it rejoins (session
        // resumption with its surviving working set) at the first refresh
        // after its restart.
        return peers_[me].peer->has_content() || faults_.down(me, ticks_);
      },
      /*snapshot=*/
      [this](std::size_t j) {
        return PlanPeer{&peers_[j].peer->sketch(),
                        peers_[j].peer->symbol_count(),
                        !faults_.unavailable(j, ticks_)};
      },
      /*create=*/
      [this](std::size_t me, PlannedDownload& planned) {
        auto download = std::make_unique<DownloadLink>(
            *peers_[planned.sender_id].peer, *peers_[me].peer,
            planned.session, planned.link);
        // The handshake itself flows over the (possibly lossy) link and
        // completes across subsequent ticks.
        download->receiver.start();
        peers_[me].downloads.emplace(planned.sender_id, std::move(download));
      });
}

std::size_t ContentDeliveryService::tick() {
  // The tick index is the virtual time every timed link advances to.
  const std::uint64_t now = ticks_;
  // Fault application precedes the refresh so crashed peers are excluded
  // from (and flash-crowd joiners included in) a refresh due this tick.
  if (faults_.active()) apply_faults(now);
  if (ticks_ % std::max<std::size_t>(1, options_.refresh_interval) == 0) {
    refresh_sessions();
  }
  ++ticks_;

  std::size_t completed_now = 0;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    PeerEntry& entry = peers_[i];
    if (entry.peer->has_content()) continue;
    // A down (crashed or stalled) peer is frozen: no origin feed, and its
    // own downloads are not serviced. Its receivers-on-other-peers keep
    // running and discover the silence via their liveness timeouts.
    if (faults_.active() && faults_.down(i, now)) continue;
    // Origin feed: one fresh symbol per tick for subscribers.
    if (entry.origin_fed) {
      entry.peer->receive_encoded(origins_[entry.origin_index]->next());
    }
    if (faults_.any_blackouts()) {
      for (auto& [sender_id, download] : entry.downloads) {
        download->link.set_blackout(faults_.blackout(sender_id, i, now));
      }
    }
    service_downloads(entry, now);
    if (entry.peer->has_content()) ++completed_now;
  }
  // Failure sweep before the completion stamps: sessions whose receivers
  // flagged a dead sender this tick are retired at the tick they failed.
  if (failure_detection_enabled()) sweep_failed_downloads(ticks_);
  // Completion stamps (covers peers finished by a refresh teardown too);
  // the global clock follows the tick index.
  for (PeerEntry& entry : peers_) {
    if (entry.completed_tick == 0 && entry.peer->has_content()) {
      entry.completed_tick = ticks_;
    }
  }
  loop_.advance_to(ticks_);
  return completed_now;
}

void ContentDeliveryService::apply_faults(std::uint64_t now) {
  faults_.apply_until(
      now,
      /*on_crash=*/
      [this](std::size_t peer) {
        if (peer >= peers_.size()) return;
        // The crash kills the peer's live sessions (wire costs banked) but
        // not its decoded content: a later restart rejoins holding the
        // partial working set and re-handshakes with its current summary.
        planner_dirty_ = true;
        for (auto& [sender_id, download] : peers_[peer].downloads) {
          teardown_download(*download);
        }
        peers_[peer].downloads.clear();
        if (peers_[peer].peer->has_content()) {
          peers_[peer].peer->compact_on_complete();
        }
      },
      /*on_join=*/
      [this](std::size_t count, bool origin_fed) {
        for (std::size_t n = 0; n < count; ++n) {
          add_peer("join" + std::to_string(peers_.size()), origin_fed);
        }
      });
}

void ContentDeliveryService::sweep_failed_downloads(std::uint64_t now) {
  for (PeerEntry& entry : peers_) {
    for (auto it = entry.downloads.begin(); it != entry.downloads.end();) {
      const ReceiverEndpoint& receiver = it->second->receiver;
      if (!receiver.failed() && !receiver.sender_suspect()) {
        ++it;
        continue;
      }
      const auto reason = receiver.failed()
                              ? FailedPeer::Reason::kHandshakeExhausted
                              : FailedPeer::Reason::kLivenessTimeout;
      teardown_download(*it->second);
      entry.failed_peers.push_back(FailedPeer{it->first, now, reason});
      faults_.mark_suspect(it->first, now + suspect_ttl());
      it = entry.downloads.erase(it);
      planner_dirty_ = true;  // the erased download's events are gone
    }
  }
}

void ContentDeliveryService::teardown_download(DownloadLink& download) {
  download.link.flush();
  download.receiver.tick();
  accumulate_link(download, retired_link_totals_);
}

void ContentDeliveryService::service_downloads(PeerEntry& entry,
                                               std::uint64_t now) {
  // All-untimed peers (the default) keep the historical lockstep loop
  // with zero scheduling overhead — the scheduler path below reproduces
  // it bit for bit (ties at `now` pop in ascending sender order), but
  // there is no reason to pay the heap on the legacy hot path.
  bool any_timed = false;
  for (auto& [sender_id, download] : entry.downloads) {
    if (download->link.timed()) {
      any_timed = true;
      break;
    }
  }
  if (!any_timed) {
    // One symbol from each active download link: the serving endpoint
    // answers handshakes and streams, the receiving endpoint absorbs.
    // The channel's one-hop residency keeps adjacent data frames paired
    // for reorder_rate even though both sides drain every tick.
    for (auto& [sender_id, download] : entry.downloads) {
      if (entry.peer->has_content()) break;
      // A down sender goes silent mid-session: its endpoint is frozen
      // while the receiver keeps ticking, so the receiver's liveness
      // clock (and handshake retry budget) does the failure detection.
      const bool sender_down =
          faults_.active() && faults_.down(sender_id, now);
      if (!sender_down) {
        download->sender.tick();
        download->sender.send_symbol();
      }
      download->receiver.tick();
    }
    return;
  }

  // Schedule each download's next service event; untimed links (mixed
  // configs) are due now with sender-ascending ties, reproducing the
  // historical lockstep order exactly. A timed link's delay/jitter
  // schedule keeps adjacent data frames paired for reorder even though
  // due links drain every service.
  const std::size_t hint = data_frame_bytes_hint(options_.block_size);
  loop_.clear();
  for (auto& [sender_id, download] : entry.downloads) {
    download->link.advance_to(now);
    LinkTimes times;
    times.timed = download->link.timed();
    times.sender_down = faults_.active() && faults_.down(sender_id, now);
    if (times.timed) {
      times.next_arrival = download->link.next_arrival_at();
      times.send_credit_at = download->link.a_send_ready_at(hint);
    }
    if (auto at = next_service_time(download->sender, download->receiver,
                                    times, now)) {
      loop_.schedule(*at, EventKind::kService, sender_id);
    }
  }
  // One symbol from each due download link: the serving endpoint answers
  // handshakes and streams (token bucket permitting), the receiving
  // endpoint absorbs.
  while (auto event = loop_.pop_due(now)) {
    if (entry.peer->has_content()) break;
    DownloadLink& download = *entry.downloads.at(event->key);
    const bool sender_down =
        faults_.active() && faults_.down(event->key, now);
    if (!sender_down) {
      download.sender.tick();
      if (!download.link.timed() ||
          download.link.a_send_ready_at(hint) <= now) {
        download.sender.send_symbol();
      }
    }
    download.receiver.advance_to(now);
    download.receiver.tick();
  }
}

std::optional<Event> ContentDeliveryService::plan_peer_events(
    std::size_t i, std::uint64_t now) {
  PeerEntry& entry = peers_[i];
  if (entry.peer->has_content()) return std::nullopt;
  // A down peer is frozen until a fault boundary (restart / stall end)
  // wakes it — every boundary forces a full planner rebuild, never a
  // per-link event.
  if (faults_.active() && faults_.down(i, now)) return std::nullopt;
  // The origin fountain streams one symbol per tick to an incomplete
  // subscriber: every tick is an event while one exists.
  if (entry.origin_fed) return Event{now, EventKind::kOriginFeed, i};
  const std::size_t hint = data_frame_bytes_hint(options_.block_size);
  plan_scratch_.clear();
  for (auto& [sender_id, download] : entry.downloads) {
    LinkTimes times;
    times.timed = download->link.timed();
    times.sender_down = faults_.active() && faults_.down(sender_id, now);
    if (times.timed) {
      times.next_arrival = download->link.next_event_time();
      times.send_credit_at = download->link.a_send_ready_at(hint);
    }
    schedule_download_events(plan_scratch_, download->sender,
                             download->receiver, times, now, sender_id);
  }
  const auto first = plan_scratch_.peek();
  if (!first) return std::nullopt;
  // Re-keyed to the receiving peer: the planner holds one entry per peer,
  // and only the entry's *time* feeds the jump target (max(peek, now) —
  // exactly what the full rebuild's global min produced).
  return Event{first->at, first->kind, i};
}

void ContentDeliveryService::replan_peer(std::size_t i, std::uint64_t now) {
  const char incomplete = peers_[i].peer->has_content() ? 0 : 1;
  if (plan_incomplete_[i] != incomplete) {
    plan_incomplete_[i] = incomplete;
    if (incomplete) {
      ++incomplete_peers_;
    } else {
      --incomplete_peers_;
    }
  }
  planner_.set(i, plan_peer_events(i, now));
}

std::optional<std::uint64_t> ContentDeliveryService::next_event_time() {
  const std::uint64_t now = ticks_;
  planner_.ensure_keys(peers_.size());
  if (plan_incomplete_.size() < peers_.size()) {
    plan_incomplete_.resize(peers_.size(), 0);
  }
  // Full rebuild when the download graph changed shape (refresh, crash,
  // sweep, join), when a fault boundary fell inside the planning gap (a
  // stall window edge flips down() with no callback), or — conservatively
  // — while blackout windows exist (they mutate link delivery without
  // touching any planned state).
  bool full = planner_dirty_ || planner_.pending_full() ||
              faults_.any_blackouts();
  if (!full && faults_.active()) {
    const auto boundary = faults_.next_boundary_after(planned_through_);
    if (boundary && *boundary <= now) full = true;
  }
  if (full) {
    planner_.begin_rebuild();
    incomplete_peers_ = 0;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      plan_incomplete_[i] = peers_[i].peer->has_content() ? 0 : 1;
      incomplete_peers_ += static_cast<std::size_t>(plan_incomplete_[i]);
      planner_.set(i, plan_peer_events(i, now));
    }
    planner_dirty_ = false;
  } else {
    // Incremental round: only peers whose stored entry came due (the
    // executed ticks may have perturbed exactly those) are replanned.
    // Entries with at >= now are untouched — every per-download time
    // source is an absolute-time function of state that no-op services
    // leave unchanged, so they are exactly what a rebuild would plan.
    plan_due_scratch_.clear();
    planner_.take_due(now, plan_due_scratch_);
    for (const std::uint64_t key : plan_due_scratch_) {
      replan_peer(key, now);
    }
  }
  planned_through_ = now;
  if (incomplete_peers_ == 0 && !faults_.pending_joins()) return std::nullopt;
  std::optional<std::uint64_t> at;
  if (const auto next = planner_.peek()) at = next->at;
  // Fault boundaries are planning barriers: the jump may never cross a
  // crash/restart/join tick or a stall/blackout window edge, so jumped
  // and lockstep runs apply faults at identical ticks.
  if (faults_.active()) {
    if (const auto boundary = faults_.next_boundary_after(now)) {
      at = at ? std::min(*at, *boundary) : *boundary;
    }
  }
  // The coordinator's next refresh tick (first multiple of the interval
  // at or after now — matching tick()'s pre-increment modulo check).
  const std::size_t interval =
      std::max<std::size_t>(1, options_.refresh_interval);
  const std::uint64_t refresh = ((now + interval - 1) / interval) * interval;
  at = at ? std::min(*at, refresh) : refresh;
  return std::max(*at, now);
}

bool ContentDeliveryService::run(std::size_t max_ticks) {
  return run_until(ticks_ + max_ticks);
}

bool ContentDeliveryService::run_until(std::uint64_t deadline) {
  while (ticks_ < deadline) {
    tick();
    if (all_finished()) return true;
    if (!options_.jump_empty_ticks) continue;
    // All-untimed swarms can never open a span (untimed downloads are
    // due every tick), so skip the planning rebuild outright and keep
    // the historical heap-free hot path. A link_config may hand out
    // timed configs per edge, so its presence keeps planning on.
    if (!options_.link.timed() && !options_.link_config) continue;
    // Jump straight to the next tick at which anything can happen; every
    // tick in between is a no-op by construction and is counted, not run.
    if (const auto next = next_event_time()) {
      const std::uint64_t target = std::min<std::uint64_t>(*next, deadline);
      loop_.skip_to(target);
      ticks_ = target;
    }
  }
  return all_finished();
}

bool ContentDeliveryService::all_finished() const {
  // "All done" is only final once no flash crowd is still scheduled to
  // arrive — a pending join re-opens the swarm.
  return !faults_.pending_joins() &&
         std::all_of(peers_.begin(), peers_.end(), [](const PeerEntry& e) {
           return e.peer->has_content();
         });
}

std::vector<std::uint8_t> ContentDeliveryService::peer_content(
    std::size_t id) const {
  return peers_.at(id).peer->content(content_.size());
}

void ContentDeliveryService::accumulate_link(const DownloadLink& download,
                                             LinkTotals& totals) {
  totals.add(download.sender.transport().stats())
      .add(download.receiver.transport().stats());
}

ContentDeliveryService::LinkTotals
ContentDeliveryService::active_link_totals() const {
  LinkTotals totals;
  for (const PeerEntry& entry : peers_) {
    for (const auto& [sender_id, download] : entry.downloads) {
      accumulate_link(*download, totals);
    }
  }
  return totals;
}

ContentDeliveryService::LinkTotals ContentDeliveryService::link_totals()
    const {
  LinkTotals totals = retired_link_totals_;
  totals += active_link_totals();
  return totals;
}

MemoryAudit ContentDeliveryService::memory_audit() const {
  MemoryAudit audit;
  audit.peers = peers_.size();
  for (const PeerEntry& entry : peers_) {
    audit.decoder_bytes += entry.peer->memory_bytes();
    for (const auto& [sender_id, download] : entry.downloads) {
      audit.endpoint_bytes += download->sender.memory_bytes() +
                              download->receiver.memory_bytes();
      // The link counts its shared buffer pool once here; the transports
      // deliberately exclude it (see Transport::memory_bytes).
      audit.link_bytes += download->link.memory_bytes();
    }
  }
  return audit;
}

}  // namespace icd::core
