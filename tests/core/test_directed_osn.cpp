// Directed-OSN (Twitter-style) mode: follow edges, public-post feeds, and
// puzzle-only access control for public posts (paper §I).
#include <gtest/gtest.h>

#include "core/session.hpp"
#include "support/fixtures.hpp"

namespace sp::core {
namespace {

using crypto::to_bytes;

Context show_context() {
  return Context({{"Opening song?", "Static Hearts"},
                  {"Wristband color?", "orange"},
                  {"Drummer threw?", "a cowbell"}});
}

class DirectedOsnTest : public ::testing::Test {
 protected:
  DirectedOsnTest() : session_(testsupport::toy_config("directed")) {
    band_ = session_.register_user("band");
    follower_ = session_.register_user("follower");
    outsider_ = session_.register_user("outsider");
    session_.follow(follower_, band_);
  }

  Session session_;
  osn::UserId band_ = 0, follower_ = 0, outsider_ = 0;
};

TEST_F(DirectedOsnTest, FollowIsDirected) {
  const auto& g = session_.graph();
  EXPECT_TRUE(g.is_following(follower_, band_));
  EXPECT_FALSE(g.is_following(band_, follower_));
  EXPECT_FALSE(g.are_friends(follower_, band_));  // follow != friendship
  EXPECT_EQ(g.followers_of(band_), std::vector<osn::UserId>{follower_});
}

TEST_F(DirectedOsnTest, SelfFollowRejected) {
  EXPECT_THROW(session_.follow(band_, band_), std::invalid_argument);
}

TEST_F(DirectedOsnTest, PublicPostVisibleToFollowersOnly) {
  const Context ctx = show_context();
  session_.share_c1(band_, to_bytes("x"), ctx, 1, 3, net::pc_profile(),
                    osn::Visibility::kPublic);
  EXPECT_EQ(session_.feed_of(follower_).size(), 1u);
  EXPECT_TRUE(session_.feed_of(outsider_).empty());  // not in feed...
}

TEST_F(DirectedOsnTest, PublicPostAccessibleWithoutFriendship) {
  const Context ctx = show_context();
  const auto receipt = session_.share_c1(band_, to_bytes("afterparty"), ctx, 2, 3,
                                         net::pc_profile(), osn::Visibility::kPublic);
  // ...but the public hyperlink is reachable by anyone, follower or not.
  const auto r = session_.access(outsider_, receipt.post_id, Knowledge::full(ctx),
                                 net::pc_profile());
  ASSERT_TRUE(r.success());
  EXPECT_EQ(*r.object, to_bytes("afterparty"));
}

TEST_F(DirectedOsnTest, PublicPostStillGatedByContext) {
  const Context ctx = show_context();
  const auto receipt = session_.share_c1(band_, to_bytes("afterparty"), ctx, 2, 3,
                                         net::pc_profile(), osn::Visibility::kPublic);
  crypto::Drbg krng("directed-partial");
  const Knowledge one = Knowledge::partial(ctx, 1, krng);
  const auto r = session_.access(follower_, receipt.post_id, one, net::pc_profile());
  EXPECT_FALSE(r.granted);
}

TEST_F(DirectedOsnTest, FriendsOnlyPostStillBlocksNonFriends) {
  const Context ctx = show_context();
  const auto receipt =
      session_.share_c1(band_, to_bytes("private"), ctx, 1, 3, net::pc_profile());
  // Default visibility unchanged: followers are NOT friends.
  EXPECT_THROW(session_.access(follower_, receipt.post_id, Knowledge::full(ctx),
                               net::pc_profile()),
               std::logic_error);
}

TEST_F(DirectedOsnTest, PublicC2PostWorks) {
  const Context ctx = show_context();
  const auto receipt = session_.share_c2(band_, to_bytes("abe-broadcast"), ctx, 2,
                                         net::pc_profile(), osn::Visibility::kPublic);
  const auto r = session_.access(outsider_, receipt.post_id, Knowledge::full(ctx),
                                 net::pc_profile());
  ASSERT_TRUE(r.success());
  EXPECT_EQ(*r.object, to_bytes("abe-broadcast"));
}

}  // namespace
}  // namespace sp::core
