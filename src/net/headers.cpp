#include "net/headers.hpp"

#include <cstdio>

namespace p4ce::net {

std::string ipv4_to_string(Ipv4Addr a) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (a >> 24) & 0xff, (a >> 16) & 0xff,
                (a >> 8) & 0xff, a & 0xff);
  return buf;
}

}  // namespace p4ce::net
