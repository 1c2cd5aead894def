#include "nn/serialize.hpp"

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"

namespace prionn::nn {

namespace {

constexpr std::uint32_t kMagic = 0x50524e4e;  // "PRNN"
/// Format version, written right after the magic. Version 1 is the
/// unversioned stream before it (magic, then the layer count), which this
/// loader reads as version = its layer count and rejects as such.
constexpr std::uint32_t kVersion = 2;

using Loader = std::function<std::unique_ptr<Layer>(std::istream&)>;

const std::map<std::string, Loader>& loaders() {
  static const std::map<std::string, Loader> table = {
      {"dense", Dense::load},         {"conv2d", Conv2d::load},
      {"maxpool2d", MaxPool2d::load}, {"relu", Relu::load},
      {"flatten", Flatten::load},     {"dropout", Dropout::load},
  };
  return table;
}

void write_string(std::ostream& os, const std::string& s) {
  const auto len = static_cast<std::uint32_t>(s.size());
  os.write(reinterpret_cast<const char*>(&len), sizeof(len));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  std::uint32_t len = 0;
  is.read(reinterpret_cast<char*>(&len), sizeof(len));
  if (!is || len > 256)
    throw std::runtime_error("load_network: corrupt layer tag");
  std::string s(len, '\0');
  is.read(s.data(), len);
  if (!is) throw std::runtime_error("load_network: truncated layer tag");
  return s;
}

}  // namespace

void save_network(std::ostream& os, const Network& net) {
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  os.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  const auto depth = static_cast<std::uint32_t>(net.depth());
  os.write(reinterpret_cast<const char*>(&depth), sizeof(depth));
  // save() below needs non-const layer access only for parameters(), which
  // is conceptually const; Network exposes layer() non-const, so cast.
  auto& mutable_net = const_cast<Network&>(net);
  for (std::size_t i = 0; i < net.depth(); ++i) {
    Layer& l = mutable_net.layer(i);
    write_string(os, l.kind());
    l.save(os);
  }
}

Network load_network(std::istream& is) {
  std::uint32_t magic = 0, version = 0, depth = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!is || magic != kMagic)
    throw std::runtime_error("load_network: bad magic");
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!is) throw std::runtime_error("load_network: truncated header");
  if (version != kVersion)
    throw std::runtime_error("load_network: unsupported stream version " +
                             std::to_string(version) + " (reads " +
                             std::to_string(kVersion) + ")");
  is.read(reinterpret_cast<char*>(&depth), sizeof(depth));
  if (!is) throw std::runtime_error("load_network: truncated header");
  // A corrupt depth would otherwise drive the loader through arbitrary
  // garbage before it trips on a layer tag; no real model comes close.
  if (depth > 1024)
    throw std::runtime_error("load_network: implausible layer count " +
                             std::to_string(depth));
  Network net;
  for (std::uint32_t i = 0; i < depth; ++i) {
    const std::string kind = read_string(is);
    const auto it = loaders().find(kind);
    if (it == loaders().end())
      throw std::runtime_error("load_network: unknown layer kind '" + kind +
                               "'");
    net.add(it->second(is));
  }
  return net;
}

}  // namespace prionn::nn
