// Fixture: building the dense d^2 x d^2 superoperator outside the
// superoperator layer (src/quantum/superop*) must be flagged.
#include <cstddef>

struct Mat {
    Mat(std::size_t rows, std::size_t cols);
    Mat conj() const;
    Mat transpose() const;
    void resize(std::size_t rows, std::size_t cols);
};
Mat kron(const Mat& a, const Mat& b);
Mat operator-(const Mat& a, const Mat& b);

Mat unitary_superop(const Mat& u) {
    return kron(u.conj(), u);  // flagged: vectorization-convention build
}

Mat hand_rolled_liouvillian(const Mat& h, const Mat& ident) {
    return kron(ident, h) - kron(h.transpose(), ident);  // flagged (transpose)
}

Mat scratch_superop(std::size_t d) {
    Mat s(d * d, d * d);  // flagged: squared-dimension dense allocation
    s.resize(d * d, d * d);  // flagged
    return s;
}
