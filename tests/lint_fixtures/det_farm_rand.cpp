// det-rand fixture, farm flavour: entropy in choosing which worker or
// index runs next breaks the run farm's bit-identical contract
// (src/farm/ hands out indices from one atomic counter, never a draw).
#include <cstddef>
#include <random>

std::size_t entropy_victim(std::size_t workers) {
  std::random_device rd;
  return rd() % workers;
}

std::size_t shuffled_sweep_start(std::size_t workers) {
  std::mt19937 gen;
  return gen() % workers;
}
