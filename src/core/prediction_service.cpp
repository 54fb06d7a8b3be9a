#include "core/prediction_service.hpp"

namespace remos::core {

HostLoadPredictionSystem::HostLoadPredictionSystem(sim::Engine& engine, sim::Rng rng,
                                                   double rate_hz, rps::ModelSpec spec,
                                                   rps::StreamingConfig config)
    : rng_(rng),
      sensor_(engine, rng.fork("hostload-sensor"), 1.0 / rate_hz),
      predictor_(spec, config) {}

void HostLoadPredictionSystem::start(std::size_t prime_samples) {
  if (running_) return;
  sim::Rng prime_rng = rng_.fork("prime");
  const std::vector<double> prime = net::generate_host_load(prime_samples, prime_rng);
  predictor_.prime(prime);
  sensor_.set_callback([this](sim::Time, double load) {
    latest_ = predictor_.push(load);
    ++predictions_;
  });
  sensor_.start();
  running_ = true;
}

void HostLoadPredictionSystem::stop() {
  if (!running_) return;
  sensor_.stop();
  running_ = false;
}

FlowBandwidthSensor::FlowBandwidthSensor(sim::Engine& engine, Modeler& modeler,
                                         net::Ipv4Address src, net::Ipv4Address dst,
                                         double interval_s, rps::ModelSpec spec,
                                         std::size_t prime_after)
    : engine_(engine),
      modeler_(modeler),
      src_(src),
      dst_(dst),
      interval_s_(interval_s),
      prime_after_(prime_after),
      predictor_(spec) {}

FlowBandwidthSensor::~FlowBandwidthSensor() { stop(); }

void FlowBandwidthSensor::start() {
  if (task_ != 0) return;
  task_ = engine_.every(interval_s_, [this] { sample(); });
}

void FlowBandwidthSensor::stop() {
  if (task_ == 0) return;
  engine_.cancel_task(task_);
  task_ = 0;
}

void FlowBandwidthSensor::sample() {
  const FlowInfo info = modeler_.flow_info(src_, dst_);
  history_.add(engine_.now(), info.available_bps);
  if (!predictor_.primed()) {
    if (history_.size() >= prime_after_) {
      try {
        predictor_.prime(history_.values());
      } catch (const std::invalid_argument&) {
        // Not enough data for the model order yet; try again next sample.
      }
    }
    return;
  }
  latest_ = predictor_.push(info.available_bps);
}

std::optional<rps::Prediction> FlowBandwidthSensor::latest_prediction() const { return latest_; }

PredictionService::PredictionService(Collector& collector, rps::ModelSpec default_spec)
    : collector_(collector), predictor_(default_spec) {}

std::optional<rps::Prediction> PredictionService::predict_resource(
    const std::string& resource_id, std::size_t horizon,
    std::optional<rps::ModelSpec> spec) const {
  const sim::MeasurementHistory* hist = collector_.history(resource_id);
  if (hist == nullptr || hist->empty()) return std::nullopt;
  const std::vector<double> values = hist->values();
  return predictor_.predict({values, horizon, spec}, cache_, resource_id);
}

}  // namespace remos::core
