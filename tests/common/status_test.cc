#include "src/common/status.h"

#include <string>

#include <gtest/gtest.h>

namespace coopfs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("no such block");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "no such block");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: no such block");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

// GCC 12 warns -Wmaybe-uninitialized on this Result's destructor: once the
// value escapes into gtest's comparison, it cannot prove that the variant's
// Status alternative (and its std::string) is not the active one. The value
// alternative is the only one ever constructed here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::InvalidArgument("bad"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  ASSERT_TRUE(result.ok());
  const std::string moved = *std::move(result);
  EXPECT_EQ(moved, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

Status FailsThrough() {
  COOPFS_RETURN_IF_ERROR(Status::DataLoss("inner"));
  return Status::Ok();
}

Status SucceedsThrough() {
  COOPFS_RETURN_IF_ERROR(Status::Ok());
  return Status::InvalidArgument("reached end");
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kDataLoss);
  EXPECT_EQ(SucceedsThrough().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace coopfs
