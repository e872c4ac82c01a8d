#include "serve/serve_engine.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace zi {

ServeEngine::ServeEngine(StreamEngine& engine, DecodableModel& model,
                         ServeConfig config)
    : engine_(engine),
      model_(model),
      config_(std::move(config)),
      kv_(engine.resources(), config_.kv_tier, model.num_decode_layers(),
          model.context_window(), model.kv_dim(), config_.max_batch),
      slots_(static_cast<std::size_t>(config_.max_batch)) {
  ZI_CHECK_MSG(&engine.model().module() == &model.module(),
               "ServeEngine model must be the StreamEngine's model");
  ZI_CHECK(config_.max_batch >= 1 && config_.max_new_tokens >= 1);
}

std::vector<ServeResult> ServeEngine::run(
    const std::vector<ServeRequest>& requests) {
  if (requests.empty()) {
    report_ = aggregate_requests({}, 0.0);
    return {};
  }
  const std::int64_t window = model_.context_window();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServeRequest& r = requests[i];
    ZI_CHECK_MSG(!r.prompt.empty(),
                 "request " << r.id << " has an empty prompt");
    ZI_CHECK_MSG(static_cast<std::int64_t>(r.prompt.size()) +
                         config_.max_new_tokens <=
                     window,
                 "request " << r.id << ": prompt " << r.prompt.size() << " + "
                            << config_.max_new_tokens
                            << " new tokens exceeds the context window "
                            << window);
    ZI_CHECK_MSG(i == 0 || requests[i - 1].arrival_seconds <=
                               r.arrival_seconds,
                 "arrival_seconds must be non-decreasing");
  }
  Communicator& comm = engine_.comm();
  const auto t0 = std::chrono::steady_clock::now();
  auto now_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  for (Slot& s : slots_) s = Slot{};
  std::vector<ServeResult> results(requests.size());
  std::vector<RequestReport> reports;
  reports.reserve(requests.size());
  std::ofstream log;
  if (comm.rank() == 0 && !config_.request_log.empty()) {
    log.open(config_.request_log, std::ios::trunc);
    ZI_CHECK_MSG(log.is_open(),
                 "cannot open request log '" << config_.request_log << "'");
  }

  // Admission control vector: [count, id...]; rank 0 fills it from the
  // wall clock, everyone else follows so the collective model step stays
  // in lockstep. Requests admit strictly FIFO (next_req is the queue head
  // and advances identically on every rank).
  std::size_t next_req = 0;
  std::size_t done = 0;
  std::vector<std::int64_t> ctl(static_cast<std::size_t>(config_.max_batch) +
                                1);
  while (done < requests.size()) {
    std::fill(ctl.begin(), ctl.end(), 0);
    if (comm.rank() == 0) {
      int free_slots = 0;
      for (const Slot& s : slots_) free_slots += s.active ? 0 : 1;
      const double now = now_s();
      std::int64_t n = 0;
      while (next_req + static_cast<std::size_t>(n) < requests.size() &&
             n < free_slots &&
             requests[next_req + static_cast<std::size_t>(n)]
                     .arrival_seconds <= now) {
        ctl[static_cast<std::size_t>(1 + n)] =
            requests[next_req + static_cast<std::size_t>(n)].id;
        ++n;
      }
      ctl[0] = n;
    }
    comm.broadcast(std::span<std::int64_t>(ctl), 0);
    for (std::int64_t i = 0; i < ctl[0]; ++i) {
      ZI_CHECK_MSG(ctl[static_cast<std::size_t>(1 + i)] ==
                       requests[next_req].id,
                   "admission control vector out of lockstep");
      auto it = std::find_if(slots_.begin(), slots_.end(),
                             [](const Slot& s) { return !s.active; });
      ZI_CHECK(it != slots_.end());
      *it = Slot{};
      it->active = true;
      it->req = next_req++;
      it->admit_seconds = now_s();
    }
    const bool any_active =
        std::any_of(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.active; });
    if (!any_active) {
      // Nothing arrived yet (open-loop gap): idle tick, no model work —
      // the traced prefetcher never sees a perturbed step.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }

    step_model(requests);

    // First-token timestamps, then eviction of completed requests.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.active) continue;
      if (s.generated.size() == 1 && s.first_token_seconds == 0.0) {
        s.first_token_seconds = now_s();
      }
      if (static_cast<std::int64_t>(s.generated.size()) <
          config_.max_new_tokens) {
        continue;
      }
      const ServeRequest& r = requests[s.req];
      RequestReport rep;
      rep.request_id = r.id;
      rep.tokens_in = static_cast<std::int64_t>(r.prompt.size());
      rep.tokens_out = static_cast<std::int64_t>(s.generated.size());
      rep.queue_seconds = s.admit_seconds - r.arrival_seconds;
      rep.prefill_seconds = s.first_token_seconds - s.admit_seconds;
      rep.decode_seconds = now_s() - s.first_token_seconds;
      results[s.req] = ServeResult{r.id, std::move(s.generated), rep};
      reports.push_back(rep);
      if (log.is_open()) log << rep.to_json_line() << '\n';
      s = Slot{};
      ++done;
    }
  }

  report_ = aggregate_requests(reports, now_s());
  if (log.is_open()) log << report_.to_json_line() << '\n';
  std::sort(results.begin(), results.end(),
            [](const ServeResult& a, const ServeResult& b) {
              return a.id < b.id;
            });
  return results;
}

void ServeEngine::step_model(const std::vector<ServeRequest>& requests) {
  ZI_TRACE_SPAN("serve", "decode_step");
  StreamCoordinator& coord = engine_.coordinator();
  coord.begin_iteration();
  std::vector<Tensor> x(slots_.size());

  // Embedding phase: prefilling slots embed their whole prompt, decoding
  // slots embed the single token produced last step. One reuse window so
  // wte/wpe are gathered once for the whole batch.
  coord.begin_reuse_window();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.active) continue;
    if (!s.prefilled) {
      x[i] = model_.embed_rows(requests[s.req].prompt, 0);
    } else {
      x[i] = model_.embed_rows(std::span<const std::int32_t>(&s.last_token, 1),
                               s.pos);
    }
  }
  coord.end_reuse_window();

  // Layer phase: every request advances through layer l inside one reuse
  // window — the layer's weights stream in once per step, the KV cache
  // pages per (slot, layer).
  for (std::int64_t l = 0; l < model_.num_decode_layers(); ++l) {
    coord.begin_reuse_window();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.active) continue;
      const std::int64_t rows = x[i].dim(0);
      const std::int64_t start = s.prefilled ? s.pos : 0;
      const KvLayerView kv = kv_.acquire(static_cast<int>(i), l, start);
      x[i] = model_.decode_layer(l, x[i], start, kv);
      kv_.release(static_cast<int>(i), l, start, rows);
    }
    coord.end_reuse_window();
  }

  // Head phase: final layernorm + LM head once per request, greedy argmax
  // over the last row's logits.
  coord.begin_reuse_window();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.active) continue;
    const Tensor logits = model_.lm_logits(x[i]);
    const std::int32_t tok =
        StreamEngine::argmax_row(logits, logits.dim(0) - 1);
    s.pos += x[i].dim(0);
    s.prefilled = true;
    s.last_token = tok;
    s.generated.push_back(tok);
  }
  coord.end_reuse_window();
  coord.end_iteration();
}

}  // namespace zi
