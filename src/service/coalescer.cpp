#include "service/coalescer.hpp"

#include <algorithm>

namespace dfg::service {

CoalesceKey make_coalesce_key(const Request& request,
                              const dataflow::Network& network,
                              std::size_t resolved_elements) {
  CoalesceKey key;
  key.network = network.identity();
  key.mesh = request.mesh;
  key.elements = resolved_elements;
  key.strategy = request.strategy;
  key.fields.reserve(request.fields.size());
  for (const FieldRef& field : request.fields) {
    key.fields.emplace_back(field.name, field.values.data(),
                            field.values.size());
  }
  // Binding order must not affect the key.
  std::sort(key.fields.begin(), key.fields.end());
  return key;
}

}  // namespace dfg::service
