// RPS <-> Remos binding (§3.3).
//
// "Remos relies on RPS collecting data itself to establish the performance
// history needed to make predictions. RPS does this through a host load
// sensor and a network flow bandwidth sensor (the latter is itself a Remos
// application)." This module provides both sensors plus the client-server
// facade that predicts any collector-held resource history.
#pragma once

#include <memory>
#include <optional>

#include "core/collector.hpp"
#include "core/modeler.hpp"
#include "net/hostload.hpp"
#include "rps/predictor.hpp"
#include "rps/shared_cache.hpp"

namespace remos::core {

/// The streaming host-load prediction system: sensor -> streaming
/// predictor, sample by sample (the Fig 6 workload).
class HostLoadPredictionSystem {
 public:
  HostLoadPredictionSystem(sim::Engine& engine, sim::Rng rng, double rate_hz,
                           rps::ModelSpec spec = rps::ModelSpec::ar(16),
                           rps::StreamingConfig config = {});

  /// Prime the predictor from synthetic history, then start streaming.
  void start(std::size_t prime_samples = 600);
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const rps::Prediction& latest() const { return latest_; }
  [[nodiscard]] const rps::StreamingPredictor& predictor() const { return predictor_; }
  [[nodiscard]] const net::HostLoadSensor& sensor() const { return sensor_; }
  [[nodiscard]] std::uint64_t predictions_made() const { return predictions_; }

 private:
  sim::Rng rng_;
  net::HostLoadSensor sensor_;
  rps::StreamingPredictor predictor_;
  rps::Prediction latest_;
  std::uint64_t predictions_ = 0;
  bool running_ = false;
};

/// The network flow bandwidth sensor — "itself a Remos application":
/// periodically flow-queries the Modeler for one src/dst pair, records the
/// available bandwidth, and streams it into an attached predictor.
class FlowBandwidthSensor {
 public:
  FlowBandwidthSensor(sim::Engine& engine, Modeler& modeler, net::Ipv4Address src,
                      net::Ipv4Address dst, double interval_s,
                      rps::ModelSpec spec = rps::ModelSpec::ar(16),
                      std::size_t prime_after = 64);
  ~FlowBandwidthSensor();
  FlowBandwidthSensor(const FlowBandwidthSensor&) = delete;
  FlowBandwidthSensor& operator=(const FlowBandwidthSensor&) = delete;

  void start();
  void stop();

  [[nodiscard]] const sim::MeasurementHistory& history() const { return history_; }
  /// Latest streamed prediction; nullopt until the predictor primes.
  [[nodiscard]] std::optional<rps::Prediction> latest_prediction() const;

 private:
  void sample();

  sim::Engine& engine_;
  Modeler& modeler_;
  net::Ipv4Address src_, dst_;
  double interval_s_;
  std::size_t prime_after_;
  rps::StreamingPredictor predictor_;
  sim::MeasurementHistory history_{1 << 14};
  std::optional<rps::Prediction> latest_;
  sim::TaskId task_ = 0;
};

/// Client-server prediction over collector-held measurement histories.
class PredictionService {
 public:
  explicit PredictionService(Collector& collector,
                             rps::ModelSpec default_spec = rps::ModelSpec::ar(16));

  /// Share a prediction cache (nullptr detaches). Successful predictions
  /// are cached keyed by (resource, horizon, model); failures (missing or
  /// too-short history) are never cached, so a resource that starts
  /// reporting is picked up immediately. The cache may be shared with
  /// other services — keys embed the model, so mixed defaults don't clash.
  void set_cache(rps::SharedPredictionCache* cache) { cache_ = cache; }

  /// Predict a resource's future from the collector's history for it.
  /// nullopt when the history is missing or too short for the model.
  [[nodiscard]] std::optional<rps::Prediction> predict_resource(
      const std::string& resource_id, std::size_t horizon,
      std::optional<rps::ModelSpec> spec = std::nullopt) const;

 private:
  Collector& collector_;
  rps::ClientServerPredictor predictor_;
  rps::SharedPredictionCache* cache_ = nullptr;
};

}  // namespace remos::core
