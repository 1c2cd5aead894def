// Network (de)serialisation: a tagged sequence of layers after a "PRNN"
// magic and a format version. Used to checkpoint PRIONN models between
// online retraining events and in tests. A stream of another version
// fails to load with an "unsupported stream version" error.
#pragma once

#include <iosfwd>

namespace prionn::nn {

class Network;

void save_network(std::ostream& os, const Network& net);
Network load_network(std::istream& is);

}  // namespace prionn::nn
