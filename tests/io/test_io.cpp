#include "io/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace qoc::io {
namespace {

/// `header`, then one row per timeslot led by its index, with every value
/// printed so that `std::stod` gives back the same double.
void expect_amplitudes_csv(std::istream& is, const std::string& header,
                           const control::ControlAmplitudes& amps) {
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, header);
    std::size_t k = 0;
    for (; std::getline(is, line); ++k) {
        ASSERT_LT(k, amps.size());
        std::stringstream row(line);
        std::string cell;
        ASSERT_TRUE(std::getline(row, cell, ','));
        EXPECT_EQ(cell, std::to_string(k));
        std::size_t j = 0;
        for (; std::getline(row, cell, ','); ++j) {
            ASSERT_LT(j, amps[k].size()) << "row " << k;
            EXPECT_EQ(std::stod(cell), amps[k][j]) << "row " << k << " col " << j;
        }
        EXPECT_EQ(j, amps[k].size()) << "row " << k;
    }
    EXPECT_EQ(k, amps.size());
}

TEST(IoAmplitudes, RoundTripStream) {
    const control::ControlAmplitudes amps{
        {0.1, -0.2}, {0.30000000001, 0.4}, {-1.0, 1.0}, {1.0 / 3.0, -2.5e-17}};
    std::stringstream ss;
    write_amplitudes_csv(ss, amps);
    expect_amplitudes_csv(ss, "slot,u0,u1", amps);
}

TEST(IoAmplitudes, RoundTripFile) {
    const control::ControlAmplitudes amps{{0.5}, {0.25}};
    const std::string path =
        (std::filesystem::temp_directory_path() / "qoc_test_amps.csv").string();
    save_amplitudes(path, amps);
    std::ifstream is(path);
    expect_amplitudes_csv(is, "slot,u0", amps);
    is.close();
    std::remove(path.c_str());
}

TEST(IoAmplitudes, MalformedInputsThrow) {
    // The writer refuses what it cannot write: an empty table, an unopenable
    // file.
    std::stringstream ss;
    EXPECT_THROW(write_amplitudes_csv(ss, {}), std::invalid_argument);
    EXPECT_THROW(save_amplitudes("/nonexistent/dir/x.csv", {{0.5}}), std::runtime_error);
}

}  // namespace
}  // namespace qoc::io
